"""The microbenchmark's access paths as stage machines on the simulator queue.

An access is a short tuple of *stages*, built once per (processor,
bank) and reused for every access that takes that route:

* :func:`delay` — wait a fixed number of cycles;
* :func:`serve` — queue FCFS at a :class:`Server` and hold one of its
  slots for a fixed number of cycles.

A :class:`Walker` moves one processor through its accesses, stage by
stage, with a single reusable queue entry on the
:class:`~repro.sim.engine.Simulator`.  It pushes the same ``(time,
seq)`` entries, in the same order, as a generator process that yields
a ``Timeout`` per delay and a ``Request`` then a ``Timeout`` per
served stage would:

* a bootstrap entry at construction;
* per served stage, a grant entry at ``now`` — immediately when a slot
  is free, else when a releaser hands its slot over — then a hold entry
  ``h`` cycles later;
* per delay, one entry ``d`` cycles later;
* on release, the grant to the first waiter before the releaser's next
  stage;
* a completion entry after the last access.

An immediate grant is never continued synchronously: the grant entry
sorts behind every entry already queued for the same instant, so
skipping it would reorder same-instant events and change every
contended result.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Optional, Sequence, Tuple

from repro.sim.engine import Simulator, _Deferred
from repro.sim.monitor import TimeWeightedStat

#: ``(server, cycles, note)``: *server* ``None`` means a plain delay;
#: *note*, if set, is called as a delay starts (fault instrumentation).
Stage = Tuple[Optional["Server"], float, Optional[Callable[[], None]]]


class Server:
    """An FCFS server: *capacity* slots and a FIFO of waiting walkers.

    *busy*, if given, integrates the number of held slots over time
    (memory banks keep one for their utilisation).
    """

    __slots__ = ("capacity", "free", "waiters", "busy")

    def __init__(self, capacity: int = 1, busy: Optional[TimeWeightedStat] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.free = capacity
        self.waiters: deque = deque()
        self.busy = busy


def delay(cycles: float, note: Optional[Callable[[], None]] = None) -> Stage:
    """A stage that waits *cycles*; *note()* runs as the wait starts."""
    return (None, cycles, note)


def serve(server: Server, cycles: float) -> Stage:
    """A stage that holds one slot of *server* for *cycles*."""
    return (server, cycles, None)


def _finished() -> None:
    """The completion entry: nothing waits on it."""


class Walker:
    """One processor walking a sequence of access paths.

    ``paths[k]`` is the (non-empty) stage tuple of access *k*.
    ``on_begin(pid, k)`` runs as access *k* starts and ``on_end(pid, k,
    t0)`` as it finishes (*t0* is its start time).  The walker schedules
    its own start at the current instant.
    """

    __slots__ = ("sim", "pid", "paths", "on_begin", "on_end", "entry", "k", "t0", "path", "i", "held")

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        paths: Sequence[Tuple[Stage, ...]],
        on_begin: Optional[Callable[[int, int], None]] = None,
        on_end: Optional[Callable[[int, int, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.paths = paths
        self.on_begin = on_begin
        self.on_end = on_end
        self.k = -1
        self.t0 = sim._now
        self.path: Tuple[Stage, ...] = ()
        self.i = 0
        self.held = False
        self.entry = _Deferred(self._start)
        heapq.heappush(sim._queue, (sim._now, next(sim._seq), self.entry))

    def _start(self) -> None:
        self.entry._fire = self._step
        self._next_access()

    def _next_access(self) -> None:
        sim = self.sim
        k = self.k + 1
        self.k = k
        if k == len(self.paths):
            self.entry = _Deferred(_finished)
            heapq.heappush(sim._queue, (sim._now, next(sim._seq), self.entry))
            return
        self.t0 = sim._now
        if self.on_begin is not None:
            self.on_begin(self.pid, k)
        self.path = path = self.paths[k]
        self.i = 0
        self._begin(path[0])

    def _begin(self, stage: Stage) -> None:
        server, cycles, note = stage
        sim = self.sim
        if server is None:
            if note is not None:
                note()
            heapq.heappush(sim._queue, (sim._now + cycles, next(sim._seq), self.entry))
        elif server.free:
            server.free -= 1
            if server.busy is not None:
                server.busy.record(server.capacity - server.free)
            heapq.heappush(sim._queue, (sim._now, next(sim._seq), self.entry))
        else:
            server.waiters.append(self)

    def _step(self) -> None:
        """Fire: a delay ended, a slot was granted, or a hold ended."""
        sim = self.sim
        path = self.path
        server, cycles, _note = path[self.i]
        if server is not None:
            if not self.held:
                self.held = True
                heapq.heappush(sim._queue, (sim._now + cycles, next(sim._seq), self.entry))
                return
            self.held = False
            server.free += 1
            busy = server.busy
            if busy is not None:
                busy.record(server.capacity - server.free)
            # Waiters exist only while every slot is held, so this
            # release frees exactly one slot for the head of the queue.
            if server.waiters:
                waiter = server.waiters.popleft()
                server.free -= 1
                if busy is not None:
                    busy.record(server.capacity - server.free)
                heapq.heappush(sim._queue, (sim._now, next(sim._seq), waiter.entry))
        i = self.i + 1
        if i == len(path):
            if self.on_end is not None:
                self.on_end(self.pid, self.k, self.t0)
            self._next_access()
        else:
            self.i = i
            self._begin(path[i])
