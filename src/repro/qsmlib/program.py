"""The SPMD program driver.

:class:`QSMMachine` is the user-facing entry point: allocate shared
arrays, then :meth:`~QSMMachine.run` a program — a generator function
``program(ctx, **kwargs)`` that every simulated processor executes with
its own :class:`~repro.qsmlib.context.QSMContext`.

The driver advances all ``p`` program generators to their next
``yield ctx.sync()``, aggregates the phase's queued requests into a
communication plan, executes the exchange in the discrete-event
simulator (where ``g``, ``o``, ``l`` and the software layer act), then
applies the bulk-synchronous memory semantics and resumes the programs.
The result is a :class:`~repro.qsmlib.stats.RunResult` with per-phase
measurements — the raw material of every figure in §3.

Everything before the exchange is the run's *host side*, and it never
depends on the network, the topology or the fault plan: the driver
keeps it as a :class:`Recording`, which another machine agreeing on
:func:`host_key` can price without running the program again (the §3
sweeps run one input on machines that differ only in ``l`` or ``o``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro import check
from repro import faults as _faults
from repro.machine.cluster import Machine
from repro.machine.config import MachineConfig
from repro.msg.mp import make_endpoints
from repro.qsmlib.address_space import AddressSpace, SharedArray
from repro.qsmlib.config import SoftwareConfig
from repro.qsmlib.context import QSMContext, SharedArrayRef, SyncToken
from repro.qsmlib.costmodel import CommCostModel
from repro.qsmlib.layout import Layout
from repro.qsmlib.plan import (
    PhaseTraffic,
    apply_phase_semantics,
    build_traffic,
    check_phase_semantics,
    compute_kappa,
)
from repro.qsmlib.requests import RequestQueue
from repro.qsmlib.runtime import SyncEngine
from repro.qsmlib.stats import PhaseRecord, RunResult
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class RunConfig:
    """Everything that parameterises one simulated run."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    software: SoftwareConfig = field(default_factory=SoftwareConfig)
    seed: int = 0
    #: Enforce §2 semantics (no read+write of one word in a phase).
    check_semantics: bool = True
    #: Record QSM's kappa each phase (costs one pass over touched words).
    track_kappa: bool = False


#: Machine fields only the pricing half of a run reads: wires and
#: topology act in the sync engine, and faults perturb compute and
#: wires there too (``EpochPhase``, ``SyncEngine._node_proc``).
PRICING_FIELDS = frozenset({"network", "topology", "faults"})


def host_key(config: RunConfig) -> tuple:
    """Everything in *config* the host side of a run may read.

    Built from the dataclass fields, so a field added later is part of
    the key unless it is listed in :data:`PRICING_FIELDS`: ``p``, the
    node (its CPU model prices ``ctx.charge``), the software layer, the
    seed (program RNG streams and address-space salt), and the
    semantics/kappa switches.
    """
    machine = tuple(
        (f.name, getattr(config.machine, f.name))
        for f in fields(config.machine)
        if f.name not in PRICING_FIELDS
    )
    rest = tuple((f.name, getattr(config, f.name)) for f in fields(config) if f.name != "machine")
    return machine + rest


@dataclass
class RecordedPhase:
    """The host side of one phase, as the sync engine consumes it."""

    traffic: PhaseTraffic
    compute_cycles: np.ndarray
    op_counts: np.ndarray
    kappa: Optional[int]


@dataclass
class Recording:
    """The machine-independent host side of one run.

    Holds only the per-phase traffic, compute and op counts plus what
    the programs reported, never the shared arrays themselves.
    """

    #: :func:`host_key` of the machine that recorded it.
    key: tuple
    phases: List[RecordedPhase] = field(default_factory=list)
    returns: List[Any] = field(default_factory=list)
    observations: Dict[str, List[tuple]] = field(default_factory=dict)
    trailing_compute_cycles: float = 0.0


class SPMDError(RuntimeError):
    """The per-processor programs did not stay in lock-step."""


class QSMMachine:
    """A simulated QSM machine ready to run one program."""

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config or RunConfig()
        self.p = self.config.machine.p
        # The run seed salts the fault RNG streams so every sweep point
        # draws its own reproducible fault schedule.
        self.machine = Machine(self.config.machine, fault_salt=self.config.seed)
        self.space = AddressSpace(self.p, default_salt=self.config.seed)
        self._endpoints = make_endpoints(self.machine.network)
        self._engine = SyncEngine(self.machine, self._endpoints, self.config.software)
        # Fetched once per machine; None when disarmed (the usual case),
        # so sanitizer support costs one attribute test per phase.
        self._sanitizer = check.active()
        self._ran = False
        #: The host side of the finished run (see :meth:`run`).
        self.recording: Optional[Recording] = None
        if self.machine.sim.obs is not None:
            # Name the path the phases will actually run on (a machine
            # that needs per-message simulation runs epoch phases slow).
            path = "epoch" if self._engine._epoch_eligible() else "slow"
            self.machine.sim.obs.set_label(
                f"qsm p={self.p} seed={self.config.seed} sync={path}"
            )

    # ------------------------------------------------------------------
    def allocate(
        self,
        name: str,
        n: int,
        layout: Layout = Layout.BLOCKED,
        dtype=np.int64,
    ) -> SharedArray:
        """Pre-register a shared array before the program starts.

        Use this for program inputs/outputs; temporaries should be
        allocated collectively inside the program via ``ctx.alloc``.
        """
        return self.space.allocate(name, n, layout=layout, dtype=dtype)

    def cost_model(self) -> CommCostModel:
        """The analytic communication cost model matching this machine."""
        return CommCostModel.for_machine(
            self.config.machine.network,
            self.config.software,
            self.machine.cpus[0],
            topology=self.config.machine.topology,
        )

    # ------------------------------------------------------------------
    def run(self, program: Union[Callable, Recording], **program_kwargs: Any) -> RunResult:
        """Execute *program* SPMD on all processors; returns measurements.

        A run has two halves.  *Recording* drives the ``p`` program
        generators through their phases — sanitizer hooks, plan
        construction (:func:`build_traffic`), the §2 memory semantics,
        observations, return values and trailing compute — and keeps,
        per phase, what the host side produced: the traffic matrices,
        compute cycles, op counts and kappa.  *Pricing* runs each
        recorded phase through the sync engine on this machine's own
        simulator and fault state.  A fresh run prices each phase as
        soon as it is recorded, so errors surface in the order they
        always did.

        The host side never reads the simulated clock, the network, the
        topology or the fault plan, so a recording is machine
        independent: pass a :class:`Recording` (from an earlier
        machine's :attr:`recording`) in place of *program* to price the
        same phases here.  Its :attr:`Recording.key` must equal this
        machine's :func:`host_key`, and no sanitizer may be armed (the
        sanitizer checks the host side, which a priced run skips).  The
        result is bit-identical to running the program again.
        """
        if self._ran:
            raise RuntimeError("a QSMMachine can run exactly one program; create a new one")
        self._ran = True

        if isinstance(program, Recording):
            if program_kwargs:
                raise TypeError("a recorded run takes no program arguments")
            if program.key != host_key(self.config):
                raise ValueError(
                    "the recording was made on a machine whose host-side "
                    "configuration differs from this one"
                )
            if self._sanitizer is not None:
                raise RuntimeError(
                    "an armed sanitizer checks the host side of a run; run the "
                    "program itself instead of pricing a recording"
                )
            recording = program
            phases: Iterable[RecordedPhase] = recording.phases
        else:
            recording = Recording(key=host_key(self.config))
            phases = self._record(program, program_kwargs, recording)

        result = RunResult(p=self.p, seed=self.config.seed)
        for phase in phases:
            result.phases.append(self._price(phase, len(result.phases)))
        result.returns = list(recording.returns)
        result.observations = {k: list(v) for k, v in recording.observations.items()}
        result.trailing_compute_cycles = recording.trailing_compute_cycles
        result.sim_events = self.machine.sim.event_count
        if self.machine.sim.obs is not None:
            self.machine.sim.obs.finalize()
        if self.machine.faults is not None:
            _faults.absorb(self.machine.faults)
        self.recording = recording
        return result

    # ------------------------------------------------------------------
    def _record(
        self, program: Callable, program_kwargs: Dict[str, Any], recording: Recording
    ) -> Iterator[RecordedPhase]:
        """Drive the program generators, yielding each phase as it is
        recorded (and appending it to *recording*)."""
        p = self.p
        rngs = RngStreams(self.config.seed, p)
        ctxs = [
            QSMContext(self.space, pid, rngs[pid], self.machine.cpus[pid])
            for pid in range(p)
        ]
        if self._sanitizer is not None:
            for ctx in ctxs:
                ctx.queue.sanitizer = self._sanitizer
        gens = [program(ctxs[pid], **program_kwargs) for pid in range(p)]
        for pid, gen in enumerate(gens):
            if not hasattr(gen, "send"):
                raise TypeError(
                    f"program must be a generator function (processor {pid} "
                    f"returned {type(gen).__name__}); did you forget a yield?"
                )

        returns: List[Any] = [None] * p
        finished = [False] * p
        trailing = np.zeros(p)
        phase_idx = 0

        while True:
            syncing: List[int] = []
            for pid in range(p):
                if finished[pid]:
                    continue
                try:
                    token = gens[pid].send(None)
                except StopIteration as stop:
                    finished[pid] = True
                    returns[pid] = stop.value
                    if not ctxs[pid].queue.empty:
                        raise SPMDError(
                            f"processor {pid} finished with unsynchronized "
                            "get/put requests pending; end programs with a sync"
                        )
                    trailing[pid], _ = ctxs[pid]._drain_compute()
                    continue
                if not isinstance(token, SyncToken):
                    raise TypeError(
                        f"processor {pid} yielded {token!r}; programs must "
                        "yield ctx.sync()"
                    )
                syncing.append(pid)

            if not syncing:
                break
            if len(syncing) != p:
                stragglers = [pid for pid in range(p) if finished[pid]]
                if self._sanitizer is not None:
                    self._sanitizer.note_desync(stragglers, syncing, phase_idx)
                raise SPMDError(
                    f"program is not SPMD: processors {stragglers} finished "
                    f"while {syncing} are still synchronizing (phase {phase_idx})"
                )

            if self._sanitizer is not None:
                self._sanitizer.check_collectives(ctxs, phase_idx)
            self._resolve_allocs(ctxs)
            queues = [ctx.queue for ctx in ctxs]
            phase = self._record_phase(ctxs, queues, phase_idx, recording.observations)
            recording.phases.append(phase)
            yield phase
            apply_phase_semantics(queues)
            for q in queues:
                q.clear()
            self._resolve_frees(ctxs)
            phase_idx += 1

        recording.returns = returns
        recording.trailing_compute_cycles = float(trailing.max()) if p else 0.0

    def _record_phase(
        self,
        ctxs: List[QSMContext],
        queues: List[RequestQueue],
        phase_idx: int,
        observations: Dict[str, List[tuple]],
    ) -> RecordedPhase:

        if self._sanitizer is not None:
            # Richer diagnostics (pids, cells, enqueue file:line) than the
            # plain check below; in error mode it raises first.
            self._sanitizer.check_phase(queues, phase_idx)
        if self.config.check_semantics:
            check_phase_semantics(queues)
        kappa = compute_kappa(queues) if self.config.track_kappa else None

        drains = [ctx._drain_compute() for ctx in ctxs]
        compute_cycles = np.array([d[0] for d in drains])
        op_counts = np.array([d[1] for d in drains])

        for pid, ctx in enumerate(ctxs):
            for key, value in ctx._drain_observations():
                observations.setdefault(key, []).append((phase_idx, pid, value))

        traffic = build_traffic(queues, self.p)
        return RecordedPhase(traffic, compute_cycles, op_counts, kappa)

    def _price(self, phase: RecordedPhase, index: int) -> PhaseRecord:
        """Run one recorded phase through this machine's sync engine."""
        traffic = phase.traffic
        timing = self._engine.execute_phase(
            traffic, phase.compute_cycles, traffic.local_words
        )
        return PhaseRecord(
            index=index,
            compute_cycles=phase.compute_cycles.copy(),
            op_counts=phase.op_counts.copy(),
            put_words=traffic.put_words.sum(axis=1),
            get_words=traffic.get_words.sum(axis=1),
            local_words=traffic.local_words.copy(),
            kappa=phase.kappa,
            put_in_words=traffic.put_words.sum(axis=0),
            get_served_words=traffic.get_words.sum(axis=0),
            start=timing.start,
            ready=timing.ready,
            end=timing.end,
        )

    def _resolve_allocs(self, ctxs: List[QSMContext]) -> None:
        """Collectively register arrays requested via ctx.alloc this phase."""
        names = set()
        for ctx in ctxs:
            names.update(ctx._alloc_requests)
        for name in sorted(names):
            specs = {}
            for ctx in ctxs:
                if name not in ctx._alloc_requests:
                    raise SPMDError(
                        f"processor {ctx.pid} did not participate in the "
                        f"collective alloc of {name!r}"
                    )
                specs[ctx.pid] = ctx._alloc_requests[name][0]
            if len(set(specs.values())) != 1:
                raise SPMDError(f"processors disagree on the spec of alloc {name!r}")
            n, layout, dtype = next(iter(specs.values()))
            arr = self.space.allocate(name, n, layout=layout, dtype=dtype)
            for ctx in ctxs:
                ctx._alloc_requests[name][1]._bind(arr)
                del ctx._alloc_requests[name]

    def _resolve_frees(self, ctxs: List[QSMContext]) -> None:
        """Collectively unregister arrays requested via ctx.free this phase."""
        per_pid: Dict[int, set] = {}
        for ctx in ctxs:
            targets = set()
            for item, _origin in ctx._free_requests:
                arr = item.array if isinstance(item, SharedArrayRef) else item
                targets.add(arr.aid)
            per_pid[ctx.pid] = targets
            ctx._free_requests = []
        reference = per_pid[0]
        for pid, targets in per_pid.items():
            if targets != reference:
                raise SPMDError(
                    f"processor {pid} freed a different set of arrays than processor 0"
                )
        for aid in sorted(reference):
            self.space.unregister(self.space.get(aid))


def run_program(
    program: Callable,
    config: Optional[RunConfig] = None,
    setup: Optional[Callable[[QSMMachine], Dict[str, Any]]] = None,
    **program_kwargs: Any,
) -> RunResult:
    """One-shot convenience: build a machine, optionally set up arrays, run.

    *setup* receives the fresh :class:`QSMMachine` and may return a dict
    of extra keyword arguments (typically the arrays it allocated) that
    is merged into the program's kwargs.
    """
    qm = QSMMachine(config)
    if setup is not None:
        extra = setup(qm) or {}
        overlap = set(extra) & set(program_kwargs)
        if overlap:
            raise ValueError(f"setup() and caller both supplied kwargs: {sorted(overlap)}")
        program_kwargs = {**program_kwargs, **extra}
    return qm.run(program, **program_kwargs)
