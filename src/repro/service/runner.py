"""Sweep runners: one long-lived forked process per service worker slot.

Everything a sweep mutates in this codebase is process-global by
design — obs capture, sanitizer diagnostics, fault plans and tallies,
the store hit/miss counters, the execution policy.  The v1 service
therefore serialised sweeps behind a lock.  The hardened service gets
concurrency *and* exact isolation the same way the ``--jobs`` executor
does: requests run in forked runner processes, where the globals are
private, so two concurrent requests with different fault plans report
exactly the counters, tallies and diagnostics their serial CLI runs
would.

A runner serves its slot's requests one after another.  Forking,
warming up and reaping a process per request cost several times the
work of a cached resubmit, so :func:`spawn_runner` forks once and
:func:`runner_loop` (the child entry point) reads request payloads from
its pipe until the server closes it.  For each payload it calls
:func:`runner_main`, which answers over the same pipe with small tagged
tuples:

* ``("point", event)`` — one store listener event per sweep point;
* ``("result", {...})`` — the experiment payload plus this request's
  cache counter delta, fault tally, sanitizer diagnostics and failed
  points;
* ``("cancelled", message)`` — the request's deadline expired;
* ``("error", message)`` — the experiment blew up.

Isolation stays exact because :func:`reset_request_state` puts every
global a run mutates back before each request: a fresh store handle on
the shared cache directory (cross-process single-flight still
coalesces identical points between runners), no listener, policy,
failures, fault plan, tally, diagnostics or obs captures.  The request
then arms its own fault plan, and a deadline policy only when it
carries one — a request without a deadline executes on exactly the
engine path a CLI run would.  The server replaces a runner after any
request that did not end in ``result``.
"""

from __future__ import annotations

import os
import stat
import time
from typing import Any, Dict, Tuple

# numpy loads numpy.random on first use; importing it here, in the
# server, lets every forked runner inherit it instead of paying the
# import (~10 ms) on its first request.
import numpy.random  # noqa: F401

from repro.service.protocol import SweepRequest

__all__ = ["reset_request_state", "runner_loop", "runner_main", "spawn_runner"]


def reset_request_state(cache_dir: str) -> None:
    """Put back every process global a sweep mutates, and install this
    request's own store handle on *cache_dir*.

    A runner forked from the server inherits these globals untouched
    (or, in a test process hosting the server, as the tests left them);
    a runner that already served a request holds what that request left
    behind.  After the reset both are in the same state.
    """
    from repro import check, faults, obs
    from repro import store as result_store
    from repro.experiments import executor, sweeps

    result_store.clear_listener()
    # Our own handle on the shared cache: counters start at zero, so the
    # final counters ARE this request's delta; the file-backed flight
    # table still coalesces against sibling runners.
    result_store.set_store(cache_dir)
    os.environ[result_store.ENV_VAR] = str(cache_dir)
    executor.clear_policy()
    executor.drain_failures()
    faults.disarm()  # plan, tally and QSM_FAULTS
    check.drain_diagnostics()
    # Captured runs and metrics; collection stays on or off as the
    # server's environment set it.
    obs.reset()
    sweeps.forget_recording()


def runner_main(conn, payload: Dict[str, Any], cache_dir: str, default_jobs: int) -> None:
    """Run one sweep request in full isolation and report it on *conn*."""
    from repro import check, faults
    from repro import store as result_store
    from repro.experiments import executor
    from repro.experiments.registry import run_experiment

    try:
        req = SweepRequest.from_payload(payload)
        reset_request_state(cache_dir)
        if req.faults:
            faults.arm(req.faults)  # also exports QSM_FAULTS for workers
        if req.deadline_seconds is not None:
            # max_retries=0: a point failing the deadline can never beat
            # it on a retry, and a crash should surface immediately.
            executor.set_policy(
                executor.ExecutionPolicy(
                    max_retries=0,
                    deadline_at=time.monotonic() + req.deadline_seconds,
                )
            )

        result_store.set_listener(lambda event: conn.send(("point", event)))
        try:
            result = run_experiment(
                req.experiment,
                fast=req.fast,
                seed=req.seed,
                jobs=req.jobs if req.jobs != 1 else default_jobs,
                models=req.models,
                ns=req.ns,
            )
        finally:
            result_store.clear_listener()

        failures = executor.drain_failures()
        deadline_hit = [f for f in failures if "deadline" in str(f.error)]
        if deadline_hit:
            conn.send(
                (
                    "cancelled",
                    f"deadline of {req.deadline_seconds:g}s exceeded with "
                    f"{len(deadline_hit)} point(s) outstanding (completed "
                    "points stayed cached; resubmit to resume)",
                )
            )
            return

        counters = result_store.counters()
        conn.send(
            (
                "result",
                {
                    "payload": result.to_json_dict(),
                    "cache": {
                        name: counters.get(name, 0)
                        for name in (
                            "hits", "misses", "coalesced", "inflight", "quarantined"
                        )
                    },
                    "faults": faults.drain_tally(),
                    "diagnostics": [d.format() for d in check.drain_diagnostics()],
                    "failures": [
                        {"index": f.index, "error": str(f.error)} for f in failures
                    ],
                },
            )
        )
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # parent died first
            pass


def _shed_inherited_sockets(keep: int) -> None:
    """Point every inherited socket descriptor except *keep* at
    ``/dev/null``.

    A runner is forked from the server, so it holds copies of the
    listener, of every open client connection and of its sibling
    runners' pipes.  A client reads EOF only once every copy of its
    server-side socket is closed, and the port can be bound again only
    once every copy of the listener is, so a runner that outlives a
    request must drop its copies.  ``dup2`` rather than ``close`` keeps
    the descriptor numbers taken: the server's socket objects, which the
    child still holds, can then never close an unrelated file that
    reused a number.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:  # pragma: no cover - no descriptor listing on this OS
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd, inheritable=False)
            except OSError:  # closed meanwhile (the listing's own fd)
                continue
    finally:
        os.close(devnull)


#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_heap_thresholds() -> None:
    """Make the runner reuse its heap the same way on every request.

    glibc raises its mmap threshold whenever a mapped block is freed and
    trims the top of the heap once twice that threshold lies free there,
    so in a process that serves request after request, whether a sweep's
    large arrays reuse heap memory or map fresh pages (each zero-filled
    on first touch) depends on what earlier requests allocated.  A runner
    that had answered 120 cached requests faulted ~5,400-6,000 pages
    (~22 MB) on each fresh ``fig1 --fast`` sweep that followed; in
    another order the same sweeps faulted none.  Fixed values switch the
    adaptation off: blocks under 32 MiB (glibc's largest mmap threshold)
    come from the heap, and the heap is trimmed once 64 MiB lie free at
    its top.  A no-op where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def runner_loop(conn, cache_dir: str, default_jobs: int) -> None:
    """Child-process body: serve requests from *conn* one at a time
    until the server closes the pipe (or sends ``None``)."""
    _shed_inherited_sockets(keep=conn.fileno())
    _fix_heap_thresholds()
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if payload is None:
            break
        # Looked up per request, so a wrapper installed on the module
        # attribute (a tracing harness) sees every request.
        runner_main(conn, payload, cache_dir, default_jobs)
    conn.close()


def spawn_runner(cache_dir: str, default_jobs: int) -> Tuple[Any, Any]:
    """Fork one idle runner; returns ``(process, conn)``.  Send it a
    request payload over *conn*, then read its tagged replies.

    Fork (not spawn) on purpose: the child inherits the server
    process's experiment registry as-is — including monkeypatched
    entries under test — exactly like the ``--jobs`` pool workers do.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    # NOT daemonic: the runner itself forks (--jobs pool workers, the
    # resilient engine's process-per-task), and daemons may not have
    # children.  The server reaps every runner it spawns.
    proc = ctx.Process(
        target=runner_loop,
        args=(child_conn, str(cache_dir), default_jobs),
    )
    proc.start()
    child_conn.close()  # the child's end lives in the child now
    return proc, parent_conn
