"""Slow-vs-epoch equivalence on the grid that once pinned the fast path.

This module first pinned the batched-DES ``fast`` sync path against the
per-message oracle.  That path is gone; the epoch kernel is the one
production kernel, and the checks here now hold it to the ``slow``
oracle: per-phase start/end times, communication cycles, algorithm
outputs, sweep rows and CLI data must come out bit-for-bit identical.
The test names are kept from the fast-path grid.  The inputs differ
from the ones in ``test_epoch_equivalence.py`` (sizes that do not
divide by ``p``, heavy key duplication, negative values, another list
and the topology figure), so the two modules cover different cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.machine.config import MachineConfig
from repro.qsmlib.config import SoftwareConfig, SyncPath
from repro.qsmlib.program import RunConfig


def _config(p: int, path: str) -> RunConfig:
    return RunConfig(
        machine=MachineConfig(p=p),
        software=SoftwareConfig(sync_path=path),
        seed=5,
    )


def _phase_fingerprint(run) -> tuple:
    """Every externally-observable timing of a run, exactly."""
    return tuple(
        (ph.start, ph.end, ph.comm_cycles, tuple(ph.compute_cycles)) for ph in run.phases
    ) + (run.total_cycles, run.trailing_compute_cycles)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_samplesort_bit_identical(p):
    rng = np.random.default_rng(43)
    data = rng.integers(0, 64, size=2001)  # heavy duplication, n % p != 0
    epoch = run_sample_sort(data.copy(), config=_config(p, "epoch"))
    slow = run_sample_sort(data.copy(), config=_config(p, "slow"))
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    np.testing.assert_array_equal(epoch.result, slow.result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_prefix_bit_identical(p):
    rng = np.random.default_rng(8)
    data = rng.integers(-1000, 1000, size=3001)
    epoch = run_prefix_sums(data.copy(), config=_config(p, "epoch"))
    slow = run_prefix_sums(data.copy(), config=_config(p, "slow"))
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    np.testing.assert_array_equal(epoch.result, slow.result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_listrank_bit_identical(p):
    succ = make_random_list(1501, seed=11)
    epoch = run_list_ranking(succ.copy(), config=_config(p, "epoch"))
    slow = run_list_ranking(succ.copy(), config=_config(p, "slow"))
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    np.testing.assert_array_equal(epoch.ranks, slow.ranks)


def test_fast_path_does_strictly_less_kernel_work():
    """The production kernel: same timings as the oracle, fewer events,
    on the phase-heavy list-ranking workload."""
    succ = make_random_list(4000, seed=0)
    epoch = run_list_ranking(succ.copy(), config=_config(8, "epoch"))
    slow = run_list_ranking(succ.copy(), config=_config(8, "slow"))
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    assert epoch.run.sim_events < slow.run.sim_events


def test_sweep_rows_identical(monkeypatch):
    """The fig2-style sweep produces identical aggregated points."""
    import dataclasses

    from repro.experiments.sweeps import run_samplesort_sweep

    def rows(path: str):
        monkeypatch.setenv("QSM_SYNC_PATH", path)
        sweep = run_samplesort_sweep(MachineConfig(p=8), [4096, 8192], reps=2, seed=0)
        return [dataclasses.asdict(pt) for pt in sweep.points]

    assert rows("epoch") == rows("slow")


def test_env_toggle_round_trip(monkeypatch):
    """QSM_SYNC_PATH gates the default; explicit field always wins."""
    monkeypatch.setenv("QSM_SYNC_PATH", "slow")
    assert SoftwareConfig().sync_path is SyncPath.SLOW
    assert SoftwareConfig(sync_path="epoch").sync_path is SyncPath.EPOCH
    monkeypatch.setenv("QSM_SYNC_PATH", "epoch")
    assert SoftwareConfig().sync_path is SyncPath.EPOCH
    assert SoftwareConfig(sync_path="slow").sync_path is SyncPath.SLOW
    monkeypatch.delenv("QSM_SYNC_PATH")
    assert SoftwareConfig().sync_path is SyncPath.EPOCH


def test_cli_data_identical_across_env_toggle(tmp_path, monkeypatch):
    """`qsm-repro run` emits identical experiment data either way, here
    on the topology figure (flat and clustered machines)."""
    import json

    from repro.experiments.cli import main

    def payload(path: str):
        monkeypatch.setenv("QSM_SYNC_PATH", path)
        out = tmp_path / f"fig8_{path}.json"
        assert main(["run", "fig8", "--fast", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        return doc["data"]

    assert payload("epoch") == payload("slow")
