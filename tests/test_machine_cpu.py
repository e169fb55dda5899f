"""Tests for the superscalar operation-profile cost model."""

import pytest

from repro.machine.cache import RandomAccess, SequentialAccess
from repro.machine.cpu import CPUModel, OpProfile
from repro.machine.config import NodeConfig


@pytest.fixture
def cpu():
    return CPUModel(NodeConfig())


def test_empty_profile_is_free(cpu):
    assert cpu.cycles(OpProfile()) == 0.0


def test_issue_width_limits_throughput(cpu):
    """400 int-only instructions at 4-wide issue take >= 100 cycles."""
    profile = OpProfile(int_ops=400)
    assert cpu.cycles(profile) >= 100.0


def test_loadstore_units_bind_memory_heavy_code(cpu):
    """1000 loads through 2 LS units need >= 500 cycles even with no stalls."""
    profile = OpProfile(loads=600, stores=400)
    assert cpu.cycles(profile) >= 500.0


def test_int_work_overlaps_memory_work(cpu):
    """Out-of-order overlap: max of the unit bounds, not their sum."""
    together = cpu.cycles(OpProfile(int_ops=400, loads=400))
    separately = cpu.cycles(OpProfile(int_ops=400)) + cpu.cycles(OpProfile(loads=400))
    assert together < separately


def test_memory_stalls_added(cpu):
    base = OpProfile(loads=1000)
    stalled = OpProfile(
        loads=1000, mem=(RandomAccess(count=1000, word_bytes=8, region_words=10**7),)
    )
    assert cpu.cycles(stalled) > cpu.cycles(base) + 5000  # ~10 cycles/mem-miss


def test_branch_mispredictions_charged(cpu):
    with_branches = cpu.cycles(OpProfile(int_ops=100, branches=1000))
    without = cpu.cycles(OpProfile(int_ops=100))
    node = NodeConfig()
    expected_penalty = 1000 * node.branch_mispredict_rate * node.branch_mispredict_penalty
    assert with_branches - without >= expected_penalty * 0.9


def test_profile_addition():
    a = OpProfile(int_ops=10, loads=5, mem=(SequentialAccess(count=5),))
    b = OpProfile(fp_ops=3, stores=2, mem=(SequentialAccess(count=2),))
    c = a + b
    assert c.int_ops == 10 and c.fp_ops == 3 and c.loads == 5 and c.stores == 2
    assert len(c.mem) == 2
    assert c.total_instructions == 20


def test_profile_scaling():
    p = OpProfile(int_ops=10, branches=2, mem=(SequentialAccess(count=8),))
    s = p.scaled(3)
    assert s.int_ops == 30 and s.branches == 6
    assert s.mem[0].count == 24


def test_profile_negative_rejected():
    with pytest.raises(ValueError):
        OpProfile(int_ops=-1)
    with pytest.raises(ValueError):
        OpProfile().scaled(-2)


def test_copy_cycles_linear(cpu):
    assert cpu.copy_cycles(2000) == pytest.approx(2 * cpu.copy_cycles(1000))
    with pytest.raises(ValueError):
        cpu.copy_cycles(-1)


def test_cycles_monotone_in_work(cpu):
    small = cpu.cycles(OpProfile(int_ops=100, loads=50))
    large = cpu.cycles(OpProfile(int_ops=200, loads=100))
    assert large > small


def test_cycles_memo_is_capped_and_exact(monkeypatch):
    import repro.machine.cpu as cpu_module

    monkeypatch.setattr(CPUModel, "_shared_memos", {})
    model = CPUModel(NodeConfig())
    profiles = [
        OpProfile(int_ops=i, loads=i % 7, mem=(RandomAccess(count=i, region_words=64 + i),))
        for i in range(1, 3 * cpu_module.MEMO_CAP)
    ]
    first = [model.cycles(prof) for prof in profiles]
    memo = CPUModel._shared_memos[NodeConfig()]
    assert len(memo) == cpu_module.MEMO_CAP
    # The oldest entries went first; recomputing them is bit-identical.
    assert profiles[0] not in memo and profiles[-1] in memo
    assert [model.cycles(p).hex() for p in profiles] == [c.hex() for c in first]
    monkeypatch.setattr(CPUModel, "_shared_memos", {})
    fresh = CPUModel(NodeConfig())
    assert [fresh.cycles(p).hex() for p in reversed(profiles)] == [
        c.hex() for c in reversed(first)
    ]


def test_many_seeds_never_grow_the_memo_past_the_cap(monkeypatch):
    import numpy as np

    import repro.machine.cpu as cpu_module
    from repro.algorithms.samplesort import run_sample_sort
    from repro.machine.config import MachineConfig
    from repro.qsmlib import RunConfig

    cap = 64
    monkeypatch.setattr(cpu_module, "MEMO_CAP", cap)
    monkeypatch.setattr(CPUModel, "_shared_memos", {})
    config = MachineConfig(p=4)
    for seed in range(12):
        values = np.random.default_rng(seed).integers(0, 2**62, size=1024 + 64 * seed)
        run_sample_sort(values, RunConfig(machine=config, seed=seed, check_semantics=False))
        assert len(CPUModel._shared_memos[config.node]) <= cap
