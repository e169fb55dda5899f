"""Parallel sweep execution over simulation points.

The experiment sweeps are embarrassingly parallel: every grid point is
an independent simulated run with its own deterministically-derived
seed.  :func:`parallel_map` fans those points out over a
``multiprocessing`` pool while guaranteeing the *same results in the
same order* as a sequential run — workers receive explicit
``(config, seed)`` task tuples, never shared mutable state, so the
job count can only change wall-clock time, never output.

Ground rules for callers:

* the worker function must be a **module-level** function (picklable);
* each task tuple must carry everything the run needs, including its
  derived seed — workers must not consult global RNG state;
* results are returned in task order (``Pool.map`` semantics).

``jobs=1`` (the default everywhere) bypasses multiprocessing entirely
and runs in-process, which keeps single-job behaviour byte-identical
to the pre-parallel code and keeps tests debuggable.

Resilient execution
-------------------
When an :class:`ExecutionPolicy` is installed (:func:`set_policy`,
driven by the CLI's ``--retries``/``--task-timeout``/``--checkpoint``
flags), :func:`parallel_map` switches to a process-per-task engine
with

* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  unhandled exception) poisons only its own point;
* **per-task timeout** — a hung point is terminated after
  ``task_timeout_seconds``;
* **bounded retries with exponential backoff** — each failed attempt
  waits ``backoff_seconds * backoff_factor**(attempt-1)``, then a
  fresh worker process is spawned;
* **failure records** — a point that exhausts its retries yields a
  :data:`FAILED` sentinel in the result list and a
  :class:`FailureRecord` (exception + full retry history) retrievable
  via :func:`drain_failures`, so one poisoned point no longer kills a
  sweep;
* **checkpoint journal** — with ``checkpoint_dir`` set, every
  completed point is appended to a JSONL journal (pickled payload, so
  results restore bit-identically); re-running the same command
  resumes by replaying journalled points and only executing the rest.

Results, traces and diagnostics remain byte-identical to a
non-resilient run because every task carries its own seed and captured
obs/sanitizer/fault state is merged in task order (see
docs/ROBUSTNESS.md).

Content-addressed result cache
------------------------------
With a result store installed (:func:`repro.store.set_store`, driven by
the CLI's ``--cache DIR`` flag, the ``serve`` subcommand, or
``QSM_CACHE=DIR``), :func:`parallel_map` derives a canonical,
version-salted key for every task (:func:`repro.store.point_key` over
the task tuple plus the armed fault plan) and partitions the list into
cached and novel points.  Cached points replay their stored capture —
result plus obs/sanitizer/fault side state — exactly like a checkpoint
journal resume; novel points run through the normal engines (pool or
resilient), are stored on success, and identical in-flight points are
deduped through :mod:`repro.store.flight` so concurrent sweeps compute
each point once.  A second identical sweep therefore executes zero
simulator points and returns byte-identical results, independent of the
job count (see docs/SERVICE.md).  Failed points are never cached.

Shared-memory result payloads
-----------------------------
Sweep points return numpy-heavy payloads (per-point arrays, traces),
and ``Pool.map`` ships every result through a pipe: pickle bytes are
copied into the pipe, out of it, and reassembled.  For large arrays
that triples the memory traffic.  On the pool path workers therefore
divert every large contiguous ndarray in a result into one
``multiprocessing.shared_memory`` segment per task and send only a
small pickle of (segment name, offsets, dtypes, shapes); the parent
reconstructs the arrays straight out of the segment, then closes and
unlinks it.  The transport is invisible to callers — reconstructed
arrays are byte-identical (the tests pin ``--jobs 1`` vs ``--jobs 4``
equality) — and ``QSM_SHM=0`` disables it wholesale.  Small results
(< ~64 KiB of array payload) skip the segment and travel the plain
pipe as before.  If the parent dies between a worker finishing and the
decode, that task's segment can outlive the run — the price of
crash-window cleanup is not worth a broker process here.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
import re
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import check, faults, obs
from repro import store as result_store

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ExecutionPolicy",
    "FailureRecord",
    "FailedPoint",
    "FAILED",
    "effective_jobs",
    "parallel_map",
    "set_policy",
    "clear_policy",
    "policy",
    "failures",
    "drain_failures",
    "is_failed",
    "shm_enabled",
    "shm_payloads_decoded",
]


def effective_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None`` and ``1`` mean sequential; ``0`` or negative means "one
    per CPU" (the conventional ``-j0`` idiom).
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Resilience policy and failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPolicy:
    """How :func:`parallel_map` should behave under adversity."""

    #: Kill a task's worker after this many wall seconds (None = never).
    task_timeout_seconds: Optional[float] = None
    #: Retries after the first failed attempt before the point is
    #: recorded as failed.
    max_retries: int = 2
    #: Base wait before the first retry.
    backoff_seconds: float = 0.25
    #: Multiplier applied to the wait after each failed attempt.
    backoff_factor: float = 2.0
    #: Directory for the per-point JSONL checkpoint journal (None
    #: disables checkpointing).
    checkpoint_dir: Optional[str] = None
    #: Absolute ``time.monotonic()`` stamp after which no further point
    #: may start and running points are cancelled (None = no deadline).
    #: Unlike the per-point ``task_timeout_seconds``, this bounds the
    #: *whole request*: the sweep service arms it so a per-request
    #: deadline cancels the underlying ``parallel_map`` cleanly —
    #: already-finished points keep their results (and stay cached),
    #: the rest come back as failed points with a ``deadline`` error.
    deadline_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task_timeout_seconds is not None and not self.task_timeout_seconds > 0:
            raise ValueError(
                f"task_timeout_seconds must be > 0, got {self.task_timeout_seconds!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_seconds < 0:
            raise ValueError(f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor!r}")

    def backoff_for(self, attempt: int) -> float:
        """Wait before retrying after failed attempt *attempt* (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)


@dataclass
class FailureRecord:
    """One sweep point that exhausted its retry budget."""

    fn: str
    index: int
    task_repr: str
    error: str
    #: Per-attempt history: ``{"attempt": k, "error": ..., "backoff_seconds": ...}``.
    attempts: List[Dict[str, Any]] = field(default_factory=list)

    def to_row(self) -> List[Any]:
        return [self.fn, self.index, self.task_repr, len(self.attempts), self.error]


class FailedPoint:
    """Sentinel standing in for a failed task's result."""

    __slots__ = ("failure",)

    def __init__(self, failure: FailureRecord) -> None:
        self.failure = failure

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FailedPoint {self.failure.fn}[{self.failure.index}]: {self.failure.error}>"


#: Generic failed-result marker for sites that only need a placeholder.
FAILED = object()


def is_failed(value: Any) -> bool:
    """Whether a :func:`parallel_map` result slot is a failure marker."""
    return value is FAILED or isinstance(value, FailedPoint)


_POLICY: Optional[ExecutionPolicy] = None
_FAILURES: List[FailureRecord] = []
#: Per-(worker fn) journal sequence numbers, so repeated sweeps over
#: the same function (fig4 then fig5) get distinct journal files while
#: a re-run of the same command maps back onto the same files.
_JOURNAL_SEQ: Dict[str, int] = {}


def set_policy(policy: Optional[ExecutionPolicy]) -> None:
    """Install the process-global execution policy (None = plain mode).

    Resets the journal sequence so a re-run of the same command maps
    its ``parallel_map`` calls onto the same checkpoint files.
    """
    global _POLICY
    _POLICY = policy
    _JOURNAL_SEQ.clear()


def clear_policy() -> None:
    set_policy(None)


def policy() -> Optional[ExecutionPolicy]:
    return _POLICY


def failures() -> List[FailureRecord]:
    """Failure records accumulated since the last :func:`drain_failures`."""
    return list(_FAILURES)


def drain_failures() -> List[FailureRecord]:
    """Return and clear the accumulated failure records."""
    out = list(_FAILURES)
    _FAILURES.clear()
    return out


# ----------------------------------------------------------------------
# Shared-memory result transport (pool path)
# ----------------------------------------------------------------------
#: Arrays below this size stay inline in the pickle — a shared-memory
#: round trip costs more than piping a few KiB.
_SHM_MIN_ARRAY_BYTES = 4096
#: A task whose diverted arrays total less than this re-pickles plainly
#: and skips the segment altogether.
_SHM_MIN_TOTAL_BYTES = 64 * 1024
#: Tag inside persistent-id markers (versioned with the blob format).
_SHM_TAG = "qsm-shm-ndarray"

#: Parent-side count of results reconstructed from a segment (tests
#: assert the transport actually engaged).
_SHM_DECODED = 0


def shm_enabled() -> bool:
    """Whether pool results may travel via shared memory (``QSM_SHM``)."""
    return os.environ.get("QSM_SHM", "").strip().lower() not in ("0", "false", "off")


def shm_payloads_decoded() -> int:
    """How many pool results this process reconstructed from segments."""
    return _SHM_DECODED


def _shm_divertible(obj: Any) -> bool:
    """Arrays worth moving out of the pickle stream: plain, contiguous,
    fixed-dtype ndarrays of at least ``_SHM_MIN_ARRAY_BYTES``."""
    import numpy as np

    return (
        type(obj) is np.ndarray
        and not obj.dtype.hasobject
        and obj.flags.c_contiguous
        and obj.nbytes >= _SHM_MIN_ARRAY_BYTES
    )


def _shm_encode(obj: Any) -> tuple:
    """Pickle *obj* for the result pipe, diverting large arrays into one
    shared-memory segment.

    Returns ``("plain", bytes)`` when the payload is too small to be
    worth a segment, else ``("shm", bytes, segment_name, offsets)``.
    The segment is created here (in the worker), unregistered from this
    process's resource tracker, and owned by the parent from then on —
    :func:`_shm_decode` closes and unlinks it.
    """
    import numpy as np

    arrays: List[Any] = []

    class _Pickler(pickle.Pickler):
        def persistent_id(self, o):
            if _shm_divertible(o):
                arrays.append(o)
                return (_SHM_TAG, len(arrays) - 1, o.dtype.str, o.shape)
            return None

    buf = io.BytesIO()
    _Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    total = sum(a.nbytes for a in arrays)
    if total < _SHM_MIN_TOTAL_BYTES:
        return ("plain", pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(create=True, size=total)
    try:
        offsets = []
        pos = 0
        for a in arrays:
            offsets.append(pos)
            np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf, offset=pos)[...] = a
            pos += a.nbytes
        # The parent unlinks the segment after decoding; without this,
        # the worker's resource tracker would tear it down (and warn)
        # when the pool shuts down.
        resource_tracker.unregister(shm._name, "shared_memory")
        return ("shm", buf.getvalue(), shm.name, tuple(offsets))
    finally:
        shm.close()


def _shm_decode(blob: tuple) -> Any:
    """Parent-side inverse of :func:`_shm_encode`; always unlinks the
    segment, so arrays are copied out before it disappears."""
    if blob[0] == "plain":
        return pickle.loads(blob[1])

    import numpy as np
    from multiprocessing import shared_memory

    _kind, payload, name, offsets = blob
    shm = shared_memory.SharedMemory(name=name)
    try:

        class _Unpickler(pickle.Unpickler):
            def persistent_load(self, pid):
                tag, index, dtype, shape = pid
                if tag != _SHM_TAG:
                    raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offsets[index]
                )
                return view.copy()

        result = _Unpickler(io.BytesIO(payload)).load()
    finally:
        shm.close()
        shm.unlink()
    global _SHM_DECODED
    _SHM_DECODED += 1
    return result


def _shm_task(fn: Callable[[T], R], instrumented: bool, task: T) -> tuple:
    """Pool worker body when the shm transport is on: run the task
    (capturing side state when instrumented) and encode the outcome."""
    out = _instrumented_task(fn, task) if instrumented else fn(task)
    return _shm_encode(out)


# ----------------------------------------------------------------------
# The map
# ----------------------------------------------------------------------
def parallel_map(fn: Callable[[T], R], tasks: Sequence[T], jobs: Optional[int] = 1) -> List[R]:
    """Map *fn* over *tasks*, optionally across processes.

    Results come back in task order regardless of completion order, so
    output is independent of the job count.  With ``jobs`` resolving to
    1 — or fewer than two tasks — this is a plain in-process loop.

    When observability is on (:func:`repro.obs.enabled`), the phase
    sanitizer is armed (:func:`repro.check.armed`) or a fault plan is
    armed (:func:`repro.faults.armed`), each worker drains its
    span/metric captures, sanitizer diagnostics and fault tallies after
    every task and the parent merges them **in task order**, so
    exported traces, aggregated metrics and diagnostic summaries are
    also independent of the job count.

    With an :class:`ExecutionPolicy` installed (see :func:`set_policy`)
    the map runs on the resilient process-per-task engine instead:
    per-task timeouts, retries with backoff, crash isolation and an
    optional checkpoint journal.  A point that exhausts its retries
    comes back as a :class:`FailedPoint` (test with :func:`is_failed`);
    everything else is unchanged.

    With a result store installed (:func:`repro.store.set_store`) every
    task is first looked up by its content key; cached points replay
    their stored capture and only novel points execute (see the module
    docstring).

    A worker may declare ``fn.task_group``, a function mapping a task to
    a hashable key.  When nothing is instrumented (so no per-point side
    state depends on execution order), tasks that share a key run back
    to back — in this process, or in order within the pool's chunks — so
    *fn* can reuse work between them (the machine sweeps price one
    recording on every machine).  Results, and the error raised if a
    task fails, are still those of the task order.
    """
    tasks = list(tasks)
    if tasks and result_store.active_store() is not None:
        return _merge_captures(_cached_map(fn, tasks, jobs))
    if _POLICY is not None and tasks:
        return _merge_captures(
            _resilient_captures(fn, tasks, effective_jobs(jobs), _POLICY)
        )
    n_jobs = min(effective_jobs(jobs), len(tasks))
    instrumented = obs.enabled() or check.armed() or faults.armed()
    group = getattr(fn, "task_group", None)
    order = None if group is None or instrumented else _group_order(tasks, group)
    if n_jobs <= 1:
        if order is None:
            return [fn(t) for t in tasks]
        return _grouped_map(fn, tasks, order)

    import multiprocessing

    # chunksize > 1 amortises IPC for fine-grained sweeps while keeping
    # Pool.map's ordered-results guarantee.
    chunksize = max(1, len(tasks) // (4 * n_jobs))
    use_shm = shm_enabled()
    submit = tasks if order is None else [tasks[i] for i in order]
    # terminate+join in a finally so Ctrl-C mid-map never leaves
    # orphaned workers behind (Pool.__exit__ only terminates).
    pool = multiprocessing.Pool(
        processes=n_jobs, initializer=_worker_init if instrumented else None
    )
    try:
        if not instrumented and not use_shm:
            return _unpermute(pool.map(fn, submit, chunksize=chunksize), order)
        if use_shm:
            blobs = pool.map(partial(_shm_task, fn, instrumented), submit, chunksize=chunksize)
            # Decode before the pool is torn down: segments are owned by
            # the parent the moment a worker returns, and unlinking them
            # here keeps the failure window (leaked segments) as small
            # as the map call itself.
            outs = [_shm_decode(b) for b in blobs]
        else:
            outs = pool.map(partial(_instrumented_task, fn), submit, chunksize=chunksize)
    finally:
        pool.terminate()
        pool.join()
    if not instrumented:
        return _unpermute(outs, order)
    results: List[R] = []
    for result, payload, diags, tally in outs:
        obs.merge_payload(payload)
        check.merge_diagnostics(diags)
        faults.merge_tally(tally)
        results.append(result)
    return results


def _group_order(tasks: List[T], group: Callable[[T], Any]) -> Optional[List[int]]:
    """Task indices with each group's tasks back to back (groups in order
    of first appearance); ``None`` when that is the task order itself."""
    members: Dict[Any, List[int]] = {}
    for i, task in enumerate(tasks):
        members.setdefault(group(task), []).append(i)
    order = [i for idx in members.values() for i in idx]
    return None if order == list(range(len(tasks))) else order


def _unpermute(outs: List[R], order: Optional[List[int]]) -> List[R]:
    """Results computed in *order*, put back in task order."""
    if order is None:
        return outs
    results: List[Any] = [None] * len(outs)
    for i, out in zip(order, outs):
        results[i] = out
    return results


def _grouped_map(fn: Callable[[T], R], tasks: List[T], order: List[int]) -> List[R]:
    """The in-process loop in group *order*, returning task-order results."""
    results: Dict[int, R] = {}
    try:
        for i in order:
            results[i] = fn(tasks[i])
    except Exception as exc:  # noqa: BLE001 - re-raised below
        error = exc
    else:
        return [results[i] for i in range(len(tasks))]
    # Raise what the task order would have: run the tasks not yet run,
    # in order, until one fails (the failed one does, deterministically).
    for i, task in enumerate(tasks):
        if i not in results:
            fn(task)
    raise error


def _worker_init() -> None:
    """Pool initializer: drop obs/sanitizer/fault state inherited via fork.

    Re-arming keeps the worker's mode (``QSM_SANITIZE`` is inherited)
    while clearing any diagnostics the parent had already recorded, so
    they are not shipped back — and double-counted — per worker.
    """
    obs.reset()
    if check.armed():
        check.arm(check.mode())
    faults.reset_tally()


def _instrumented_task(fn: Callable[[T], R], task: T):
    """Run one task in a worker; returns ``(result, obs payload,
    sanitizer diagnostics, fault tally)``.

    Module-level (picklable).  Under the ``spawn`` start method the
    worker re-imports :mod:`repro.obs`, :mod:`repro.check` and
    :mod:`repro.faults`, which re-enable collection from the inherited
    ``QSM_OBS`` / ``QSM_SANITIZE`` / ``QSM_FAULTS`` environment
    variables.
    """
    result = fn(task)
    return result, obs.drain_payload(), check.drain_diagnostics(), faults.drain_tally()


# ----------------------------------------------------------------------
# Capture-based engines (shared by the cache and the resilient path)
# ----------------------------------------------------------------------
#: One per-point outcome: ("ok", (result, obs payload, diagnostics,
#: fault tally)) or ("failed", FailureRecord).
_Entry = Tuple[str, Any]


def _merge_captures(entries: Sequence[_Entry]) -> List[Any]:
    """Fold per-point captures into the process state, in task order,
    and assemble the result list (the single merge point for the
    resilient and cached engines)."""
    results: List[Any] = []
    for status, value in entries:
        if status == "ok":
            result, payload, diags, tally = value
            obs.merge_payload(payload)
            check.merge_diagnostics(diags)
            faults.merge_tally(tally)
            results.append(result)
        else:
            _FAILURES.append(value)
            results.append(FailedPoint(value))
    return results


def _hold_side_state() -> tuple:
    """Drain whatever obs/diagnostic/tally state this process already
    holds, to be re-merged *before* task captures.

    The in-process capture loop drains global state after every task;
    without this, state recorded before the map (a previous figure's
    metrics, say) would be swept into the first task's cache entry and
    replayed forever after.
    """
    return obs.drain_payload(), check.drain_diagnostics(), faults.drain_tally()


def _merge_side_state(side: tuple) -> None:
    payload, diags, tally = side
    obs.merge_payload(payload)
    check.merge_diagnostics(diags)
    faults.merge_tally(tally)


def _captured_map(
    fn: Callable[[T], R],
    tasks: List[T],
    jobs: Optional[int],
    progress: Optional[Callable[[int, _Entry], None]] = None,
) -> List[_Entry]:
    """Run *tasks* and return per-point capture entries (no merging).

    Chooses the same engine :func:`parallel_map` would — resilient when
    a policy is installed, pool otherwise — but keeps each point's
    captured side state separate so the caller can interleave them with
    cached captures in task order.  *progress* is called per completed
    point (cache streaming).
    """
    if not tasks:
        return []
    if _POLICY is not None:
        return _resilient_captures(
            fn, tasks, effective_jobs(jobs), _POLICY, progress=progress
        )
    n_jobs = min(effective_jobs(jobs), len(tasks))
    entries: List[_Entry] = []
    if n_jobs <= 1:
        for i, task in enumerate(tasks):
            entry: _Entry = ("ok", _capture_task(fn, task))
            entries.append(entry)
            if progress is not None:
                progress(i, entry)
        return entries

    import multiprocessing

    chunksize = max(1, len(tasks) // (4 * n_jobs))
    use_shm = shm_enabled()
    pool = multiprocessing.Pool(processes=n_jobs, initializer=_worker_init)
    try:
        if use_shm:
            it = pool.imap(partial(_shm_task, fn, True), tasks, chunksize=chunksize)
            for i, blob in enumerate(it):
                entry = ("ok", _shm_decode(blob))
                entries.append(entry)
                if progress is not None:
                    progress(i, entry)
        else:
            it = pool.imap(partial(_instrumented_task, fn), tasks, chunksize=chunksize)
            for i, capture in enumerate(it):
                entry = ("ok", capture)
                entries.append(entry)
                if progress is not None:
                    progress(i, entry)
    finally:
        pool.terminate()
        pool.join()
    return entries


# ----------------------------------------------------------------------
# Content-addressed cache engine (repro.store)
# ----------------------------------------------------------------------
def _cache_env() -> Optional[dict]:
    """Ambient state folded into point keys: the armed global fault
    plan (a machine-pinned plan already travels in the task tuple).
    The sync path is excluded on purpose — all paths are bit-identical
    by contract, so caching across them is sound."""
    plan = faults.active_plan()
    if plan is None:
        return None
    return {"faults": plan.to_spec() or "noop"}


def _cached_map(fn: Callable[[T], R], tasks: List[T], jobs: Optional[int]) -> List[_Entry]:
    """Partition *tasks* into cached vs novel points, execute only the
    novel ones, and return entries in task order.

    Identical keys inside one batch are computed once; keys already in
    flight elsewhere (another thread of a sweep service) are waited on
    and read back from the store (single-flight dedupe).  Failed points
    are returned but never stored.
    """
    store = result_store.active_store()
    assert store is not None
    fn_name = _fn_name(fn)
    env = _cache_env()
    keys = [result_store.point_key(fn_name, t, env=env) for t in tasks]

    instrumented = obs.enabled() or check.armed() or faults.armed()
    held = _hold_side_state() if instrumented else None
    # Buffer the store counters' obs mirror: mirrored increments between
    # two in-process tasks would be drained into the next task's stored
    # capture and double-counted on every replay.
    result_store.defer_obs_mirror()

    try:
        entry_by_key: Dict[str, _Entry] = {}
        seen: set = set()
        novel_keys: List[str] = []  # unique, first-seen order
        novel_tasks: List[T] = []
        for i, key in enumerate(keys):
            if key in seen:
                result_store.record(
                    "coalesced", key=key, fn=fn_name, index=i, status="coalesced"
                )
                continue
            seen.add(key)
            capture = store.get_capture(key)
            if capture is not None:
                entry_by_key[key] = ("ok", capture)
                result_store.record("hits", key=key, fn=fn_name, index=i, status="hit")
            else:
                novel_keys.append(key)
                novel_tasks.append(tasks[i])

        # Single-flight: lead the keys nobody else is computing; wait on
        # the rest after our own batch finishes.
        leaders: List[Tuple[str, T]] = []
        followers: List[str] = []
        for key, task in zip(novel_keys, novel_tasks):
            if result_store.flight_begin(key):
                leaders.append((key, task))
            else:
                followers.append(key)

        def settle_leader(key: str, entry: _Entry) -> None:
            """Store + release one computed point (at most once per key)."""
            if key in entry_by_key:
                return
            status, value = entry
            if status == "ok":
                store.put_capture(key, value)
            entry_by_key[key] = entry
            result_store.flight_finish(key)
            result_store.record(
                "misses", key=key, fn=fn_name,
                status="computed" if status == "ok" else "failed",
            )

        try:
            computed = _captured_map(
                fn,
                [t for _, t in leaders],
                jobs,
                # Streamed per completed point (pool/sequential engines);
                # resilient journal replays land in the zip below instead.
                progress=lambda j, entry: settle_leader(leaders[j][0], entry),
            )
            for (key, _), entry in zip(leaders, computed):
                settle_leader(key, entry)
        finally:
            for key, _ in leaders:  # crash safety: never strand followers
                result_store.flight_finish(key)

        for key in followers:
            result_store.flight_wait(key)
            capture = store.get_capture(key)
            if capture is not None:
                entry_by_key[key] = ("ok", capture)
                result_store.record("coalesced", key=key, fn=fn_name, status="hit")
            else:
                # The other flight failed or never stored; compute inline.
                entry = _captured_map(fn, [novel_tasks[novel_keys.index(key)]], 1)[0]
                if entry[0] == "ok":
                    store.put_capture(key, entry[1])
                result_store.record("misses", key=key, fn=fn_name, status="computed")
                entry_by_key[key] = entry

        if held is not None:
            # Re-merge pre-map state first, so merge order matches a plain
            # run: everything recorded before the map, then task captures.
            _merge_side_state(held)
        return [entry_by_key[key] for key in keys]
    finally:
        result_store.flush_obs_mirror()


# ----------------------------------------------------------------------
# Resilient engine: process-per-task, timeout, retry, checkpoint
# ----------------------------------------------------------------------
def _fn_name(fn: Callable) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


def _task_key(task: Any) -> str:
    """Stable identity of one task for checkpoint matching.

    A canonical structural digest (:func:`repro.store.task_digest`):
    dataclasses lower to sorted field items, floats to their exact hex
    form — unlike the old ``repr`` hash, the key cannot drift across
    interpreter versions or numpy repr changes.
    """
    return result_store.task_digest(task)


def _legacy_task_key(task: Any) -> str:
    """The pre-canonical journal key (``repr`` hash); kept so journals
    written by older builds still resume instead of re-running."""
    return hashlib.sha256(repr(task).encode()).hexdigest()[:16]


def _journal_path(directory: str, fn: Callable) -> str:
    """The journal file for this ``parallel_map`` call.

    One file per (worker function, call ordinal): deterministic across
    re-runs of the same command, distinct when one command sweeps the
    same function repeatedly (fig4 then fig5 both map
    ``_sweep_point_task``).
    """
    name = re.sub(r"[^A-Za-z0-9_.-]", "_", _fn_name(fn))
    seq = _JOURNAL_SEQ.get(name, 0)
    _JOURNAL_SEQ[name] = seq + 1
    return os.path.join(directory, f"{name}-{seq:02d}.jsonl")


def _load_journal(path: str) -> Dict[str, dict]:
    """Parse a checkpoint journal, tolerating a truncated final line.

    Records are keyed by task, not by position: a sweep whose task
    order changed still resumes every journalled point.
    """
    records: Dict[str, dict] = {}
    if not os.path.exists(path):
        return records
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # interrupted mid-write; the point just re-runs
            if rec.get("v") == 1 and rec.get("status") in ("ok", "failed"):
                records[rec["key"]] = rec
    return records


def _encode_capture(capture: tuple) -> str:
    """Pickle a worker capture for the journal (results restore
    bit-identically, including non-JSON values like RunResult)."""
    return base64.b64encode(
        pickle.dumps(capture, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_capture(blob: str) -> tuple:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def _capture_task(fn: Callable[[T], R], task: T) -> tuple:
    """Run one task and bundle its result with captured side state."""
    result = fn(task)
    return result, obs.drain_payload(), check.drain_diagnostics(), faults.drain_tally()


def _resilient_worker(fn: Callable, task: Any, send_conn) -> None:
    """Process-per-task worker body (forked; fresh for every attempt)."""
    try:
        _worker_init()
        blob = pickle.dumps(
            ("ok", _capture_task(fn, task)), protocol=pickle.HIGHEST_PROTOCOL
        )
    except BaseException as exc:  # noqa: BLE001 - the whole point is isolation
        blob = pickle.dumps(("error", f"{type(exc).__name__}: {exc}"))
    try:
        send_conn.send_bytes(blob)
    finally:
        send_conn.close()


class _Journal:
    """Append-only JSONL checkpoint writer (line-buffered + flushed, so
    an interrupt can truncate at most the line being written)."""

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self._fh = None
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._fh = open(path, "a")

    def append(self, rec: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _resilient_map(
    fn: Callable[[T], R], tasks: List[T], n_jobs: int, pol: ExecutionPolicy
) -> List[R]:
    """Back-compat wrapper: run the resilient engine and merge captures."""
    return _merge_captures(_resilient_captures(fn, tasks, n_jobs, pol))


def _resilient_captures(
    fn: Callable[[T], R],
    tasks: List[T],
    n_jobs: int,
    pol: ExecutionPolicy,
    progress: Optional[Callable[[int, _Entry], None]] = None,
) -> List[_Entry]:
    """The process-per-task engine behind :func:`parallel_map` when an
    :class:`ExecutionPolicy` is installed.  See the module docstring
    for the behaviour contract.

    Returns per-point capture entries in task order (merging is the
    caller's job, so the cache engine can interleave these with stored
    captures).  *progress* fires once per point settled live — journal
    replays do not re-fire it.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    fn_name = _fn_name(fn)
    keys = [_task_key(t) for t in tasks]

    journal_path = None
    completed: Dict[str, dict] = {}
    if pol.checkpoint_dir is not None:
        journal_path = _journal_path(pol.checkpoint_dir, fn)
        completed = _load_journal(journal_path)

    # capture per index: ("ok", capture-tuple) or ("failed", FailureRecord)
    done: Dict[int, Tuple[str, Any]] = {}
    pending: List[int] = []
    for i, key in enumerate(keys):
        rec = completed.get(key)
        if rec is None:
            # Tolerate journals written before the canonical key scheme
            # (repr-hash keys): old sweeps still resume, new appends use
            # the stable keys.
            rec = completed.get(_legacy_task_key(tasks[i]))
        if rec is None:
            pending.append(i)
        elif rec["status"] == "ok":
            done[i] = ("ok", _decode_capture(rec["payload"]))
        else:
            done[i] = (
                "failed",
                FailureRecord(
                    fn=fn_name,
                    index=i,
                    task_repr=repr(tasks[i])[:200],
                    error=rec["error"],
                    attempts=rec.get("attempts", []),
                ),
            )

    journal = _Journal(journal_path)
    # index -> (process, parent_conn, start_monotonic, attempt)
    running: Dict[int, Tuple[Any, Any, float, int]] = {}
    # (ready_monotonic, index, next_attempt)
    delayed: List[Tuple[float, int, int]] = []
    attempts_log: Dict[int, List[Dict[str, Any]]] = {}

    def spawn(index: int, attempt: int) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_resilient_worker, args=(fn, tasks[index], send_conn), daemon=True
        )
        proc.start()
        send_conn.close()  # parent's copy; child holds the write end
        running[index] = (proc, recv_conn, time.monotonic(), attempt)

    def settle(index: int, status: str, value: Any) -> None:
        proc, conn, _, _ = running.pop(index)
        conn.close()
        proc.join()
        if status == "ok":
            done[index] = ("ok", value)
            journal.append(
                {
                    "v": 1,
                    "index": index,
                    "key": keys[index],
                    "status": "ok",
                    "payload": _encode_capture(value),
                }
            )
            if progress is not None:
                progress(index, done[index])
        else:
            handle_failure(index, str(value))

    def handle_failure(index: int, error: str, final: bool = False) -> None:
        attempt = attempts_log.setdefault(index, [])
        attempt_no = len(attempt) + 1
        retrying = not final and attempt_no <= pol.max_retries
        backoff = pol.backoff_for(attempt_no) if retrying else 0.0
        attempt.append(
            {"attempt": attempt_no, "error": error, "backoff_seconds": backoff}
        )
        if retrying:
            delayed.append((time.monotonic() + backoff, index, attempt_no + 1))
            return
        failure = FailureRecord(
            fn=fn_name,
            index=index,
            task_repr=repr(tasks[index])[:200],
            error=error,
            attempts=attempt,
        )
        done[index] = ("failed", failure)
        journal.append(
            {
                "v": 1,
                "index": index,
                "key": keys[index],
                "status": "failed",
                "error": error,
                "attempts": attempt,
            }
        )
        if progress is not None:
            progress(index, done[index])

    try:
        from multiprocessing.connection import wait as _conn_wait

        while pending or running or delayed:
            now = time.monotonic()
            # Whole-request deadline: stop starting points, cancel the
            # running ones, and fail everything outstanding — no retries
            # (they could not beat the deadline either).
            if pol.deadline_at is not None and now >= pol.deadline_at:
                for proc, conn, _, _ in running.values():
                    proc.terminate()
                for proc, conn, _, _ in running.values():
                    proc.join()
                    conn.close()
                outstanding = sorted(
                    set(pending) | set(running) | {idx for _, idx, _ in delayed}
                )
                running.clear()
                pending.clear()
                delayed.clear()
                for idx in outstanding:
                    handle_failure(idx, "request deadline exceeded", final=True)
                break
            # Promote retry waits whose backoff has elapsed (front of
            # the queue: retries should not starve behind fresh points).
            ready = [d for d in delayed if d[0] <= now]
            if ready:
                delayed[:] = [d for d in delayed if d[0] > now]
                pending[:0] = [idx for _, idx, _ in ready]
            while pending and len(running) < n_jobs:
                idx = pending.pop(0)
                attempt = len(attempts_log.get(idx, ())) + 1
                spawn(idx, attempt)
            if not running:
                if delayed:
                    time.sleep(max(0.0, min(d[0] for d in delayed) - time.monotonic()))
                continue

            # Wait for results, bounded by the nearest deadline/backoff.
            wait_s = 0.25
            if pol.task_timeout_seconds is not None:
                nearest = min(
                    start + pol.task_timeout_seconds for _, _, start, _ in running.values()
                )
                wait_s = min(wait_s, max(0.0, nearest - time.monotonic()))
            if delayed:
                wait_s = min(
                    wait_s, max(0.0, min(d[0] for d in delayed) - time.monotonic())
                )
            if pol.deadline_at is not None:
                wait_s = min(wait_s, max(0.0, pol.deadline_at - time.monotonic()))
            conn_map = {conn: idx for idx, (_, conn, _, _) in running.items()}
            for conn in _conn_wait(list(conn_map), timeout=wait_s):
                idx = conn_map[conn]
                try:
                    status, value = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    proc = running[idx][0]
                    proc.join()
                    settle(idx, "error", f"worker crashed (exit code {proc.exitcode})")
                    continue
                settle(idx, status, value)

            # Enforce per-task deadlines on whatever is still running.
            if pol.task_timeout_seconds is not None:
                now = time.monotonic()
                for idx in [
                    i
                    for i, (_, _, start, _) in running.items()
                    if now - start > pol.task_timeout_seconds
                ]:
                    proc = running[idx][0]
                    proc.terminate()
                    proc.join()
                    settle(
                        idx,
                        "error",
                        f"task timed out after {pol.task_timeout_seconds:g}s",
                    )
    finally:
        # Ctrl-C / crash teardown: no orphaned workers, journal flushed.
        for proc, conn, _, _ in running.values():
            proc.terminate()
        for proc, conn, _, _ in running.values():
            proc.join()
            conn.close()
        running.clear()
        journal.close()

    # Entries in task order; the caller merges captured side state.
    return [done[i] for i in range(len(tasks))]
