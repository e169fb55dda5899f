"""The asyncio batch front-end: sweeps as a multi-tenant service.

:class:`SweepService` listens on a local TCP endpoint, accepts
:class:`~repro.service.protocol.SweepRequest` submissions, and runs
them through the normal experiment registry against a shared
content-addressed result store — the first submission of a sweep
computes and stores every point, and any identical later submission
(from any client) streams back entirely from cache.

Concurrency model (v2 — the hardened service)
---------------------------------------------
* the event loop owns all sockets and all bookkeeping; requests are
  accepted concurrently and pass one
  :class:`~repro.service.admission.AdmissionController` (token auth,
  bounded queue, per-client quotas) before touching a runner slot;
* admitted requests queue for a **bounded pool of sweep runners**;
  each worker slot runs its requests in a long-lived forked process
  (:mod:`repro.service.runner`), forked on the slot's first request
  and reset before every request, so per-request state — obs capture,
  fault plan, sanitizer diagnostics, store counter delta — is exactly
  as isolated as a serial CLI run.  A runner is replaced after any
  request that did not end in a result (error, cancellation, death,
  hard-deadline kill) and torn down with the service.
  Concurrent requests sharing points still compute each point once:
  single-flight is file-backed under the store
  (:class:`repro.store.FileFlight`), so leadership holds *across* the
  runner processes;
* per-point events flow from each runner over a pipe, through a pump
  thread and ``call_soon_threadsafe``, into the event loop and on to
  the submitting client's socket;
* every state transition is journalled
  (:class:`~repro.service.journal.RequestJournal`) before the server
  acts on it; on restart, requests that were accepted/running when the
  process died re-run detached, so an idempotent client resubmit is
  answered byte-identically from cache with zero recomputation.

Graceful degradation: ``drain`` stops admissions and the server exits
once in-flight work settles; ``health``/``ready`` answer orchestration
probes; malformed, oversized, unauthorized or over-quota requests get
structured ``error`` events (:data:`repro.service.protocol.ERROR_CODES`),
never a dead connection.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.store import FileFlight, ResultStore
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.journal import RequestJournal
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    SweepRequest,
    decode_line,
    encode_line,
    error_event,
)
from repro.service.runner import spawn_runner

__all__ = ["SweepService"]

#: One line is one JSON message; sweep requests are small.
_MAX_LINE = 1 << 20

#: Cache counters accumulated per request and reported by ``stats``.
_COUNTER_NAMES = ("hits", "misses", "coalesced", "inflight", "quarantined")

#: Admission cost estimate for requests that do not pin an ``ns`` grid.
_DEFAULT_COST_POINTS = 8.0

#: Per-submission ids: ``request_id`` is *content* identity and is
#: shared by coalescing resubmissions, so live-process bookkeeping
#: (the runner table) must not key on it.
_SUBMISSION_IDS = itertools.count(1)

#: Why a runner was replaced, by the terminal message its request
#: ended with: no message (EOF), ``cancelled`` (its own deadline or the
#: server's hard-deadline kill) or ``error``.
_REPLACE_REASONS = ("died", "deadline", "failed")


@dataclass
class _Runner:
    """One forked runner process and the server's end of its pipe."""

    proc: Any
    conn: Any
    #: Requests it has answered with a result.
    served: int = 0


@dataclass
class _Pending:
    """One admitted request waiting for / occupying a runner slot."""

    req: SweepRequest
    payload: Dict[str, Any]
    request_id: str
    client_id: str
    #: False for journal-replayed (detached) runs: they were admitted
    #: in a previous life and have no connection to stream to.
    admitted: bool = True
    #: Peer address the quota backstop charged; settled on finish.
    peer_id: Optional[str] = None
    #: Unique per submission even when ``request_id`` collides.
    submission_id: int = field(default_factory=lambda: next(_SUBMISSION_IDS))
    events: Optional[asyncio.Queue] = field(default=None, repr=False)

    def emit(self, message: Optional[Dict[str, Any]]) -> None:
        """Queue one event for the submitting connection (no-op when
        detached); ``None`` closes the stream."""
        if self.events is not None:
            self.events.put_nowait(message)


class SweepService:
    """One service instance: a store, a listener socket, a runner pool."""

    #: Parent-side hard-kill backstop past a request's own deadline
    #: (the runner cancels itself at the deadline; this catches a
    #: runner that wedged outside the executor).
    DEADLINE_GRACE_SECONDS = 10.0

    def __init__(
        self,
        cache_dir: str,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        jobs: int = 1,
        *,
        token: Optional[str] = None,
        max_workers: int = 2,
        queue_limit: int = 8,
        max_inflight_per_client: int = 4,
        points_per_minute: Optional[float] = None,
        read_timeout: float = 30.0,
        journal: bool = True,
        default_deadline: Optional[float] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: Default job count for requests that do not pin their own.
        self.jobs = jobs
        self.cache_dir = str(cache_dir)
        #: Per-instance store handle — deliberately NOT installed as the
        #: process-global store: runners install their own on the same
        #: directory, and a test process may host several services.
        self.store = ResultStore(cache_dir)
        self._flight = FileFlight(self.store.root / "flight")
        self.admission = AdmissionController(
            policy
            or AdmissionPolicy(
                max_workers=max_workers,
                queue_limit=queue_limit,
                max_inflight_per_client=max_inflight_per_client,
                points_per_minute=points_per_minute,
                token=token,
            )
        )
        self.read_timeout = read_timeout
        #: Deadline applied to requests that do not carry their own.
        self.default_deadline = default_deadline
        self.journal: Optional[RequestJournal] = (
            RequestJournal(self.store.root / "service") if journal else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._queue: Optional[asyncio.Queue] = None
        self._workers: list = []
        #: Runner processes busy with a request, keyed by
        #: ``_Pending.submission_id`` (NOT ``request_id``: coalescing
        #: resubmissions share that).
        self._procs: Dict[int, Any] = {}
        #: Live runners waiting for their next request.  At most
        #: ``max_workers`` requests run at once, so busy plus idle
        #: runners never outnumber the worker slots.
        self._idle: List[_Runner] = []
        self.runners_started = 0
        #: Requests served by a runner that had already served one.
        self.runners_reused = 0
        self.runners_replaced: Dict[str, int] = {r: 0 for r in _REPLACE_REASONS}
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        self.requests_served = 0
        self.requests_replayed = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and the runner pool; ``port=0`` picks a
        free port (tests).  Interrupted journalled requests re-queue as
        detached runs before the first connection is accepted."""
        self._stopping = asyncio.Event()
        self._queue = asyncio.Queue()
        if self.journal is not None:
            self._replay_journal()
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.admission.policy.max_workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _replay_journal(self) -> None:
        assert self.journal is not None and self._queue is not None
        interrupted = self.journal.interrupted()
        self.journal.compact()
        for entry in interrupted:
            request_id = entry["request"]
            try:
                req = SweepRequest.from_payload(entry["payload"])
            except (ValueError, TypeError) as exc:
                self.journal.record(
                    request_id, "failed", error=f"unreplayable: {exc}"
                )
                continue
            self.requests_replayed += 1
            self._queue.put_nowait(
                _Pending(
                    req=req,
                    payload=entry["payload"],
                    request_id=request_id,
                    client_id=str(entry.get("client") or req.client or "replay"),
                    admitted=False,
                )
            )

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or a completed drain)."""
        if self._server is None:
            await self.start()
        assert self._server is not None and self._stopping is not None
        async with self._server:
            await self._stopping.wait()

    async def stop(self) -> None:
        """Tear down: sockets, worker tasks, live runner processes.
        Requests cut off mid-run stay journalled as ``running`` and
        replay on the next start (crash-equivalent shutdown)."""
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        procs = list(self._procs.values()) + [r.proc for r in self._idle]
        conns = [r.conn for r in self._idle]
        self._procs.clear()
        self._idle.clear()
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        loop = asyncio.get_running_loop()
        for proc in procs:
            await loop.run_in_executor(None, proc.join, 5.0)

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                line = await asyncio.wait_for(reader.readline(), self.read_timeout)
            except asyncio.TimeoutError:
                await self._send(
                    writer,
                    error_event(
                        "timeout",
                        f"no request within {self.read_timeout:g}s; closing",
                    ),
                )
                return
            except ValueError:
                # The StreamReader line limit tripped mid-line.
                await self._send(
                    writer,
                    error_event(
                        "bad_request", f"request line exceeds {_MAX_LINE} bytes"
                    ),
                )
                return
            if not line:
                return  # clean disconnect before any request
            try:
                request = decode_line(line)
            except (ValueError, UnicodeDecodeError) as exc:
                # Includes a mid-line disconnect (truncated JSON tail).
                await self._send(writer, error_event("bad_request", str(exc)))
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):  # pragma: no cover
                pass

    async def _send(self, writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        writer.write(encode_line(message))
        await writer.drain()

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        proto = request.get("protocol", PROTOCOL_VERSION)
        if proto not in SUPPORTED_VERSIONS:
            await self._send(
                writer,
                error_event(
                    "protocol",
                    f"protocol {proto} unsupported (server speaks "
                    f"{PROTOCOL_VERSION}, accepts {list(SUPPORTED_VERSIONS)})",
                ),
            )
            return
        cmd = request.get("cmd")
        if cmd in ("sweep", "drain", "shutdown") and not self.admission.authorized(
            request.get("token")
        ):
            await self._send(
                writer,
                error_event("unauthorized", f"command {cmd!r} requires a valid token"),
            )
            return

        if cmd == "ping":
            from repro.experiments.registry import EXPERIMENTS

            await self._send(
                writer,
                {
                    "event": "pong",
                    "protocol": PROTOCOL_VERSION,
                    "experiments": sorted(EXPERIMENTS),
                },
            )
        elif cmd == "stats":
            counters = dict(self._counters)
            counters["inflight_now"] = self._flight.inflight()
            await self._send(
                writer,
                {
                    "event": "stats",
                    "store": self.store.stats().to_dict(),
                    "counters": counters,
                    "requests_served": self.requests_served,
                    "requests_replayed": self.requests_replayed,
                    "admission": self.admission.snapshot(),
                    "runners": self._runner_stats(),
                    "journal": (
                        str(self.journal.path) if self.journal is not None else None
                    ),
                },
            )
        elif cmd == "health":
            snap = self.admission.snapshot()
            await self._send(
                writer,
                {
                    "event": "health",
                    "status": "draining" if self.admission.draining else "ok",
                    "requests_served": self.requests_served,
                    "runners_live": len(self._procs) + len(self._idle),
                    **snap,
                },
            )
        elif cmd == "ready":
            snap = self.admission.snapshot()
            ready = (
                not self.admission.draining
                and snap["queued"] < self.admission.policy.queue_limit
            )
            await self._send(
                writer,
                {"event": "ready", "ready": ready, "draining": snap["draining"]},
            )
        elif cmd == "drain":
            self.admission.begin_drain()
            await self._send(writer, {"event": "ok", "draining": True})
            self._maybe_finish_drain()
        elif cmd == "shutdown":
            await self._send(writer, {"event": "ok"})
            if self._stopping is not None:
                self._stopping.set()
        elif cmd == "sweep":
            await self._admit_sweep(request, writer)
        else:
            await self._send(
                writer, error_event("bad_request", f"unknown cmd {cmd!r}")
            )

    # -- the sweep path -------------------------------------------------
    async def _admit_sweep(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        from repro.experiments.registry import EXPERIMENTS

        try:
            req = SweepRequest.from_payload(request)
            if req.experiment not in EXPERIMENTS:
                raise ValueError(
                    f"unknown experiment {req.experiment!r}; available: "
                    f"{', '.join(sorted(EXPERIMENTS))}"
                )
        except (ValueError, TypeError) as exc:
            await self._send(writer, error_event("bad_request", str(exc)))
            return
        if req.deadline_seconds is None and self.default_deadline is not None:
            req.deadline_seconds = self.default_deadline

        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}" if peer else "anonymous"
        client_id = req.client or peer_id
        cost = float(len(req.ns)) if req.ns else _DEFAULT_COST_POINTS
        decision = self.admission.admit(client_id, cost, peer_id=peer_id)
        if not decision.admitted:
            await self._send(writer, error_event(decision.code, decision.message))
            return

        request_id = req.identity()
        pending = _Pending(
            req=req,
            payload=req.to_payload(),
            request_id=request_id,
            client_id=client_id,
            peer_id=peer_id,
            events=asyncio.Queue(),
        )
        assert self._queue is not None
        if self.journal is not None:
            try:
                self.journal.record(
                    request_id, "accepted", payload=pending.payload, client=client_id
                )
            except OSError as exc:
                # Not yet enqueued, so the admission slots are still
                # ours to settle; never leak them on a journal failure.
                self.admission.started(client_id)
                self.admission.finished(client_id, peer_id)
                await self._send(
                    writer, error_event("internal", f"journal write failed: {exc}")
                )
                return
        queued_behind = self._queue.qsize()
        # Enqueue BEFORE the accepted send: if the client vanished and
        # drain() raises, the worker still runs the request and settles
        # the admission counters — a flaky client must never leak a
        # queue or in-flight slot.
        self._queue.put_nowait(pending)
        await self._send(
            writer,
            {
                "event": "accepted",
                "request_key": request_id,
                "experiment": req.experiment,
                "queued": queued_behind,
            },
        )
        assert pending.events is not None
        while True:
            message = await pending.events.get()
            if message is None:
                break
            await self._send(writer, message)

    async def _worker(self) -> None:
        """One runner slot: pull admitted requests, run them to a
        terminal state, settle quota accounting."""
        assert self._queue is not None
        while True:
            pending = await self._queue.get()
            if pending.admitted:
                self.admission.started(pending.client_id)
            try:
                await self._run_pending(pending)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # An unexpected failure (journal I/O, a settle bug)
                # must cost one request, not a runner slot forever: a
                # silently shrinking pool leaves admitted clients
                # blocked on an event stream nobody will ever feed.
                try:
                    if self.journal is not None:
                        self.journal.record(
                            pending.request_id, "failed", error=f"internal: {exc}"
                        )
                except OSError:
                    pass
                pending.emit(
                    error_event("internal", f"request failed inside the server: {exc}")
                )
                pending.emit(None)
            finally:
                if pending.admitted:
                    self.admission.finished(pending.client_id, pending.peer_id)
                self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if self.admission.draining and self._stopping is not None:
            snap = self.admission.snapshot()
            idle = (
                snap["inflight_total"] == 0
                and not self._procs
                and (self._queue is None or self._queue.empty())
            )
            if idle:
                self._stopping.set()

    def _runner_stats(self) -> Dict[str, Any]:
        live = list(self._procs.values()) + [r.proc for r in self._idle]
        return {
            "started": self.runners_started,
            "reused": self.runners_reused,
            "replaced": dict(self.runners_replaced),
            "live": len(live),
            "pids": sorted(proc.pid for proc in live),
        }

    def _checkout_runner(self) -> _Runner:
        """An idle live runner, or a freshly forked one (lazy fork)."""
        while self._idle:
            runner = self._idle.pop()
            if runner.proc.is_alive():
                return runner
            # Died while idle (killed from outside): reap and replace.
            self.runners_replaced["died"] += 1
            self._reap(runner.proc, runner.conn)
        proc, conn = spawn_runner(self.cache_dir, self.jobs)
        self.runners_started += 1
        return _Runner(proc, conn)

    async def _run_pending(self, pending: _Pending) -> None:
        req = pending.req
        request_id = pending.request_id
        if self.journal is not None:
            self.journal.record(request_id, "running")
        loop = asyncio.get_running_loop()
        try:
            runner = self._checkout_runner()
        except OSError as exc:
            if self.journal is not None:
                self.journal.record(request_id, "failed", error=str(exc))
            pending.emit(error_event("internal", f"could not fork runner: {exc}"))
            pending.emit(None)
            return
        proc, conn = runner.proc, runner.conn
        self._procs[pending.submission_id] = proc
        if runner.served:
            self.runners_reused += 1
        chan: asyncio.Queue = asyncio.Queue()

        def pump() -> None:
            # Forward this request's messages; the first one that is not
            # a point is terminal, and the runner then waits for its
            # next request, so the pump stops there.
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = ("eof", None)
                try:
                    loop.call_soon_threadsafe(chan.put_nowait, msg)
                except RuntimeError:  # loop already closed (server torn down)
                    return
                if msg[0] != "point":
                    return

        hard_deadline = None
        if req.deadline_seconds is not None:
            hard_deadline = (
                loop.time() + req.deadline_seconds + self.DEADLINE_GRACE_SECONDS
            )
        terminal = None
        reason = "died"
        # The runner reported its own end, so it is alive and idle.
        reported = False
        try:
            try:
                conn.send(pending.payload)
            except OSError as exc:  # died after the liveness check
                terminal = ("error", f"sweep runner died before reporting: {exc}")
            else:
                threading.Thread(
                    target=pump, name=f"runner-pump-{request_id[:8]}", daemon=True
                ).start()
            while terminal is None:
                timeout = (
                    None
                    if hard_deadline is None
                    else max(0.0, hard_deadline - loop.time())
                )
                try:
                    kind, data = await asyncio.wait_for(chan.get(), timeout)
                except asyncio.TimeoutError:
                    proc.terminate()
                    reason = "deadline"
                    terminal = (
                        "cancelled",
                        f"deadline of {req.deadline_seconds:g}s exceeded "
                        "(runner killed past the grace period)",
                    )
                    break
                if kind == "point":
                    pending.emit({"event": "point", **data})
                elif kind == "eof":
                    terminal = ("error", "sweep runner died before reporting")
                else:
                    terminal = (kind, data)
                    reason = "deadline" if kind == "cancelled" else "failed"
                    reported = True
        finally:
            keep = terminal is not None and terminal[0] == "result"
            try:
                if terminal is None:  # cancelled mid-run (service stopping)
                    proc.terminate()
                else:
                    await self._settle(pending, terminal)
            finally:
                # Even a failing settle (journal I/O) must not leave the
                # runner untracked/unreaped.
                self._procs.pop(pending.submission_id, None)
                if keep:
                    runner.served += 1
                    self._idle.append(runner)
                else:
                    if terminal is not None:
                        self.runners_replaced[reason] += 1
                    # A runner that reported its end waits for the next
                    # request: closing the pipe lets it exit cleanly.
                    # A killed or dead one is joined before the close.
                    await loop.run_in_executor(None, self._reap, proc, conn, reported)

    async def _settle(self, pending: _Pending, terminal) -> None:
        """Journal + report one terminal runner message."""
        kind, data = terminal
        request_id = pending.request_id
        if kind == "result":
            cache = data.get("cache", {})
            for name in _COUNTER_NAMES:
                self._counters[name] += int(cache.get(name, 0))
            self.requests_served += 1
            if self.journal is not None:
                self.journal.record(request_id, "done")
            event: Dict[str, Any] = {
                "event": "result",
                "request_key": request_id,
                "payload": data["payload"],
                "cache": cache,
            }
            # Per-request side channels travel only when non-empty, so
            # v1 consumers see exactly the v1 result shape.
            for extra in ("faults", "diagnostics", "failures"):
                if data.get(extra):
                    event[extra] = data[extra]
            pending.emit(event)
            pending.emit({"event": "done"})
        elif kind == "cancelled":
            if self.journal is not None:
                self.journal.record(request_id, "cancelled", error=str(data))
            pending.emit(error_event("deadline", str(data)))
        else:
            if self.journal is not None:
                self.journal.record(request_id, "failed", error=str(data))
            pending.emit(error_event("internal", str(data)))
        pending.emit(None)

    @staticmethod
    def _reap(proc, conn, graceful: bool = False) -> None:
        """Blocking runner cleanup (runs on the default executor)."""
        if graceful:
            conn.close()  # EOF: the idle runner leaves its request loop
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - wedged runner
            proc.kill()
            proc.join(timeout=5.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- sync convenience (CLI `serve`) ---------------------------------
    def run(self) -> None:
        """Blocking entry point: serve until shutdown/drain completes."""
        asyncio.run(self._run_async())

    async def _run_async(self) -> None:
        await self.start()
        print(
            json.dumps(
                {
                    "serving": self.endpoint,
                    "cache": str(self.store.root),
                    "workers": self.admission.policy.max_workers,
                    "journal": (
                        str(self.journal.path) if self.journal is not None else None
                    ),
                },
                sort_keys=True,
            ),
            flush=True,
        )
        await self.serve_forever()
        await self.stop()
