"""The §4 microbenchmark driver.

Each processor issues back-to-back accesses to global memory ("as
quickly as it can"), choosing banks per the access pattern.  The
reported figure of merit is the mean access time once the system is in
steady state (a warm-up prefix is discarded, mirroring the paper's use
of arrays too large to cache — there is no cold-cache transient to
measure).

Each processor is a :class:`~repro.membank.stages.Walker` over one
cached stage tuple per (processor, bank) route: software overhead,
interconnect request, bank service, optional injected stall,
interconnect response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import faults as _faults
from repro import obs as _obs
from repro.membank.banks import BankArray
from repro.membank.machines import MemoryMachineConfig
from repro.membank.patterns import AccessPattern
from repro.membank.stages import Walker, delay
from repro.sim import Simulator
from repro.sim.monitor import TallyStat
from repro.util.rng import spawn_rngs


@dataclass
class MicrobenchResult:
    """Outcome of one (machine, pattern) microbenchmark run."""

    machine: str
    pattern: str
    p: int
    accesses_per_proc: int
    mean_access_cycles: float
    mean_access_us: float
    per_proc_mean_cycles: np.ndarray
    max_bank_utilization: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.machine:14s} {self.pattern:10s} "
            f"{self.mean_access_us:10.3f} us/access"
        )


def run_microbenchmark(
    config: MemoryMachineConfig,
    pattern: AccessPattern,
    accesses_per_proc: int = 2000,
    warmup: Optional[int] = None,
    seed: int = 0,
    fault_plan=None,
) -> MicrobenchResult:
    """Run the stress microbenchmark; returns steady-state access times.

    *fault_plan* pins a :class:`~repro.faults.plan.FaultPlan` for this
    run; when ``None`` the process-global plan (if armed) applies.  Only
    the plan's membank axis acts here: stalled accesses pay
    ``bank_stall_cycles`` extra service time, on a per-pid seeded
    schedule independent of event interleaving.
    """
    if accesses_per_proc < 1:
        raise ValueError("need at least one access per processor")
    warmup = accesses_per_proc // 10 if warmup is None else warmup
    if warmup < 0:
        raise ValueError(f"warmup ({warmup}) must be >= 0")
    if warmup >= accesses_per_proc:
        raise ValueError(f"warmup ({warmup}) must be < accesses ({accesses_per_proc})")

    sim = Simulator()
    obs = _obs.attach(sim, label=f"membank {config.name}/{pattern.name} p={config.p}")
    fstate = _faults.state_for(fault_plan, config.p, salt=seed)
    if fstate is not None and obs is not None:
        obs.add_finalizer(fstate.harvest_obs)
    banks = BankArray(sim, config.n_banks, config.bank_service_cycles)
    interconnect = config.make_interconnect()
    rngs = spawn_rngs(seed, config.p)
    stats: List[TallyStat] = [TallyStat() for _ in range(config.p)]
    head = (delay(config.software_cycles),) if config.software_cycles else ()

    def stall_stage(pid: int, bank: int) -> tuple:
        # Injected stall burst: once the bank releases, the access
        # waits extra service time (a refresh/contention hiccup).
        cycles = fstate.plan.bank_stall_cycles

        def note() -> None:
            fstate.record_bank_stall(cycles)
            if obs is not None:
                obs.instant("fault.bank_stall", pid, bank=bank, cycles=cycles)

        return (delay(cycles, note),)

    def route(pid: int, bank: int, stalled: bool) -> tuple:
        return (
            head
            + interconnect.request_stages(pid, bank)
            + (banks.stage(bank),)
            + (stall_stage(pid, bank) if stalled else ())
            + interconnect.response_stages(pid, bank)
        )

    targets: List[List[int]] = []
    spans: List[object] = [None] * config.p

    def on_begin(pid: int, k: int) -> None:
        spans[pid] = obs.begin("membank.access", pid, bank=targets[pid][k], warm=k >= warmup)

    def on_end(pid: int, k: int, t0: float) -> None:
        if obs is not None:
            obs.end(spans[pid])
        if k >= warmup:
            stats[pid].record(sim.now - t0)

    for pid in range(config.p):
        banks_k = [int(b) for b in pattern.choose(rngs[pid], pid, config.n_banks, accesses_per_proc)]
        targets.append(banks_k)
        stalls = None if fstate is None else fstate.bank_stall_mask(pid, accesses_per_proc)
        stalled = [False] * accesses_per_proc if stalls is None else stalls.tolist()
        # One path per (bank, stalled) route, shared by every access on it.
        cache: dict = {}
        paths = []
        for key in zip(banks_k, stalled):
            path = cache.get(key)
            if path is None:
                path = cache[key] = route(pid, *key)
            paths.append(path)
        Walker(sim, pid, paths, on_begin if obs is not None else None, on_end)
    sim.run()

    if obs is not None:
        m = obs.metrics
        m.counter("membank.accesses").inc(config.p * accesses_per_proc)
        hist = m.histogram("membank.access_cycles")
        for s in stats:
            hist.fold_tally(s)
        util = m.gauge("membank.bank_utilization")
        for b in range(config.n_banks):
            util.set(banks.utilization(b))
        obs.finalize()
    if fstate is not None:
        # After finalize: the obs harvester must see live counters.
        _faults.absorb(fstate)

    per_proc = np.array([s.mean for s in stats])
    total = float(
        sum(s.mean * s.count for s in stats) / max(1, sum(s.count for s in stats))
    )
    util = max(banks.utilization(b) for b in range(config.n_banks))
    return MicrobenchResult(
        machine=config.name,
        pattern=pattern.name,
        p=config.p,
        accesses_per_proc=accesses_per_proc,
        mean_access_cycles=total,
        mean_access_us=config.cycles_to_us(total),
        per_proc_mean_cycles=per_proc,
        max_bank_utilization=util,
    )


def pattern_sweep(
    config: MemoryMachineConfig,
    patterns,
    accesses_per_proc: int = 2000,
    seed: int = 0,
) -> Dict[str, MicrobenchResult]:
    """Run several patterns on one machine; returns results by pattern name."""
    return {
        pat.name: run_microbenchmark(config, pat, accesses_per_proc=accesses_per_proc, seed=seed)
        for pat in patterns
    }
