"""Record once, price anywhere: a run's host side is machine independent.

``QSMMachine.run`` records the SPMD programs' per-phase traffic, compute
and observations, then prices each phase on its own machine.  Pricing a
recording made on another machine must give a ``RunResult`` equal to a
fresh run's bit for bit, on every machine the sweeps put side by side
(fig4's latencies, fig6's overheads, fig8's topologies), under fault
injection and with observability on; and the sweeps must still call
``QSMMachine.run`` once per point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import check, faults, obs
from repro.algorithms.samplesort import run_sample_sort
from repro.experiments import fig8_topology, sweeps
from repro.faults.plan import FaultPlan
from repro.faults.state import FaultError
from repro.machine.config import ClusterTopology, MachineConfig, NodeConfig
from repro.qsmlib import QSMMachine, Recording, RunConfig, host_key
from repro.qsmlib.stats import RunResult

N = 4096
SEED = 1001

_ARRAYS = (
    "compute_cycles",
    "op_counts",
    "put_words",
    "get_words",
    "local_words",
    "put_in_words",
    "get_served_words",
)


def _config(machine: MachineConfig, seed: int = SEED) -> RunConfig:
    return RunConfig(machine=machine, seed=seed, check_semantics=False)


def _fresh(machine: MachineConfig, n: int = N, seed: int = SEED):
    values = np.random.default_rng(seed).integers(0, 2**62, size=n)
    return run_sample_sort(values, _config(machine, seed))


def _price(recording: Recording, machine: MachineConfig, seed: int = SEED) -> RunResult:
    return QSMMachine(_config(machine, seed)).run(recording)


def _bits(value) -> tuple:
    return type(value).__name__, float(value).hex()


def assert_bit_identical(a: RunResult, b: RunResult) -> None:
    assert (a.p, a.seed, len(a.phases)) == (b.p, b.seed, len(b.phases))
    for x, y in zip(a.phases, b.phases):
        assert x.index == y.index and x.kappa == y.kappa
        for name in ("start", "ready", "end"):
            assert _bits(getattr(x, name)) == _bits(getattr(y, name)), name
        for name in _ARRAYS:
            u, v = getattr(x, name), getattr(y, name)
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name
    assert a.sim_events == b.sim_events
    assert a.returns == b.returns
    assert a.observations == b.observations
    assert _bits(a.trailing_compute_cycles) == _bits(b.trailing_compute_cycles)


def _sweep_machines():
    """Every fast fig4, fig6 and fig8 machine, with a test id."""
    base = MachineConfig()
    out = [(f"l={l:g}", base.with_network(latency_cycles=l)) for l in sweeps.FAST_LS]
    out += [(f"o={o:g}", base.with_network(overhead_cycles=o)) for o in sweeps.FAST_OS]
    out.append(("flat", base))
    grid = fig8_topology._grid_topologies(
        None, fig8_topology.FAST_RATIOS, fig8_topology.FAST_CORES, base.network
    )
    for t in grid:
        ratio = base.network.gap_cycles_per_byte / t.intra_gap_cycles_per_byte
        out.append((f"cluster-c{t.cores_per_node}-r{ratio:g}", MachineConfig(topology=t)))
    return out


MACHINES = _sweep_machines()


@pytest.fixture(scope="module")
def recording() -> Recording:
    # Recorded on the default machine, which no priced machine below
    # equals except fig8's flat row.
    return _fresh(MachineConfig()).recording


@pytest.mark.parametrize("machine", [m for _, m in MACHINES], ids=[i for i, _ in MACHINES])
def test_priced_equals_fresh_on_every_sweep_machine(recording, machine):
    assert_bit_identical(_price(recording, machine), _fresh(machine).run)


def test_recording_is_not_mutated_by_pricing(recording):
    machine = MachineConfig().with_network(latency_cycles=6400.0)
    first = _price(recording, machine)
    for phase in first.phases:
        phase.compute_cycles[:] = -1.0
        phase.local_words[:] = -1
    first.returns.append("x")
    first.observations.clear()
    assert_bit_identical(_price(recording, machine), _fresh(machine).run)


def test_fault_plan_on_the_des_path(recording):
    plan = FaultPlan(drop_prob=0.02, straggler_count=2, straggler_slowdown=1.5, seed=3)
    machine = MachineConfig().with_faults(plan)
    faults.reset_tally()
    fresh = _fresh(machine).run
    fresh_tally = faults.drain_tally()
    priced = _price(recording, machine)
    priced_tally = faults.drain_tally()
    assert fresh_tally["fault.drops"] > 0
    assert fresh_tally["fault.straggler_extra_cycles"] > 0
    assert priced_tally == fresh_tally
    assert_bit_identical(priced, fresh)


def test_fatal_fault_raises_the_same_error(recording):
    machine = MachineConfig().with_faults(FaultPlan(drop_prob=0.6, max_retransmits=1, seed=3))
    with pytest.raises(FaultError) as fresh:
        _fresh(machine)
    with pytest.raises(FaultError) as priced:
        _price(recording, machine)
    assert str(priced.value) == str(fresh.value)
    faults.reset_tally()


def _observed(payload):
    """Spans and metrics of a drained obs payload, wall clocks dropped."""
    runs = [
        (run["label"], [s[:4] + s[6:] for s in run["spans"]], run["instants"])
        for run in payload["runs"]
    ]
    metrics = {k: v for k, v in payload["metrics"].items() if "wall" not in k}
    return runs, metrics


def test_observed_run(recording, obs_state):
    machine = MachineConfig(topology=ClusterTopology(cores_per_node=4))
    obs.drain_payload()
    fresh = _fresh(machine).run
    fresh_obs = _observed(obs.drain_payload())
    priced = _price(recording, machine)
    priced_obs = _observed(obs.drain_payload())
    assert fresh_obs[0] and fresh_obs[0][0][1]  # spans were recorded
    assert priced_obs == fresh_obs
    assert_bit_identical(priced, fresh)


def test_recording_must_match_the_host_side(recording):
    with pytest.raises(ValueError, match="host-side"):
        _price(recording, MachineConfig(p=8))
    with pytest.raises(ValueError, match="host-side"):
        _price(recording, MachineConfig(), seed=SEED + 1)
    with pytest.raises(TypeError):
        QSMMachine(_config(MachineConfig())).run(recording, extra=1)


def test_armed_sanitizer_refuses_a_recording(recording, sanitizer):
    with pytest.raises(RuntimeError, match="sanitizer"):
        _price(recording, MachineConfig())


def test_host_key_ignores_only_pricing_fields():
    base = _config(MachineConfig())
    same = [
        MachineConfig().with_network(latency_cycles=400.0),
        MachineConfig(topology=ClusterTopology()),
        MachineConfig().with_faults(FaultPlan(drop_prob=0.1)),
    ]
    for machine in same:
        assert host_key(_config(machine)) == host_key(base)
    assert host_key(_config(MachineConfig(p=8))) != host_key(base)
    slow_node = NodeConfig(branch_mispredict_penalty=20.0)
    assert host_key(_config(MachineConfig(node=slow_node))) != host_key(base)
    assert host_key(_config(MachineConfig(), seed=2)) != host_key(base)
    assert host_key(RunConfig(machine=MachineConfig(), seed=SEED)) != host_key(base)


def _count_runs(monkeypatch):
    calls = []
    original = QSMMachine.run

    def counting(self, program, **kwargs):
        result = original(self, program, **kwargs)
        calls.append((isinstance(program, Recording), len(result.phases)))
        return result

    monkeypatch.setattr(QSMMachine, "run", counting)
    return calls


LS = [400.0, 6400.0, 102400.0]
#: One rep: consecutive inputs share a seed and differ only in n.
NS = [4096, 8192, 16384]


def test_sweeps_run_each_point_once_and_reuse(monkeypatch):
    calls = _count_runs(monkeypatch)
    reused = sweeps.latency_sweeps(LS, NS, reps=1, seed=0)
    points = len(LS) * len(NS)
    # One QSMMachine.run per point (the probes only build cost models);
    # each input is recorded once and priced on the other two machines.
    assert len(calls) == points
    assert sum(priced for priced, _ in calls) == points - len(NS)
    assert {phases for _, phases in calls} == {5}

    calls.clear()
    check.arm("warn")
    try:
        separate = sweeps.latency_sweeps(LS, NS, reps=1, seed=0)
    finally:
        check.disarm()
    # An armed sanitizer checks the host side, so every point records.
    assert len(calls) == points and not any(priced for priced, _ in calls)
    for key in LS:
        assert reused[key].points == separate[key].points
