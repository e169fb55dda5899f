"""The vectorized epoch kernel must be timing-equivalent to the oracle.

``SyncPath.EPOCH`` prices a whole bulk-synchronous phase with numpy
array math and one flat merge loop; the discrete-event simulator is
only consulted at the phase boundary.  That is a pure simulator
optimisation: every observable quantity — per-phase start/ready/end
times, communication cycles, algorithm outputs, sweep rows, experiment
tables — must come out bit-for-bit identical with the per-message
``slow`` oracle.  These tests pin that contract across processor counts
and all three paper algorithms, the automatic fallback to per-message
simulation when a feature needs it, observed and sanitized runs staying
on the kernel, and the CLI/env plumbing that selects the path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig
from repro.qsmlib import QSMMachine
from repro.qsmlib.config import SoftwareConfig, SyncPath
from repro.qsmlib.program import RunConfig

PATHS = ("slow", "epoch")


def _config(p: int, path: str, machine: MachineConfig = None) -> RunConfig:
    return RunConfig(
        machine=machine or MachineConfig(p=p),
        software=SoftwareConfig(sync_path=path),
        seed=5,
    )


def _phase_fingerprint(run) -> tuple:
    """Every externally-observable timing of a run, exactly."""
    return tuple(
        (ph.start, ph.end, ph.comm_cycles, tuple(ph.compute_cycles)) for ph in run.phases
    ) + (run.total_cycles, run.trailing_compute_cycles)


# ----------------------------------------------------------------------
# Bit identity across both paths, all three algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_samplesort_bit_identical_on_all_paths(p):
    rng = np.random.default_rng(42)
    data = rng.integers(0, 1 << 30, size=2000)
    runs = {path: run_sample_sort(data.copy(), config=_config(p, path)) for path in PATHS}
    fingerprints = {path: _phase_fingerprint(r.run) for path, r in runs.items()}
    assert fingerprints["epoch"] == fingerprints["slow"]
    np.testing.assert_array_equal(runs["epoch"].result, runs["slow"].result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_prefix_bit_identical_on_all_paths(p):
    rng = np.random.default_rng(7)
    data = rng.integers(0, 1000, size=3000)
    runs = {path: run_prefix_sums(data.copy(), config=_config(p, path)) for path in PATHS}
    fingerprints = {path: _phase_fingerprint(r.run) for path, r in runs.items()}
    assert fingerprints["epoch"] == fingerprints["slow"]
    np.testing.assert_array_equal(runs["epoch"].result, runs["slow"].result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_listrank_bit_identical_on_all_paths(p):
    succ = make_random_list(1500, seed=3)
    runs = {path: run_list_ranking(succ.copy(), config=_config(p, path)) for path in PATHS}
    fingerprints = {path: _phase_fingerprint(r.run) for path, r in runs.items()}
    assert fingerprints["epoch"] == fingerprints["slow"]
    np.testing.assert_array_equal(runs["epoch"].ranks, runs["slow"].ranks)


def test_epoch_does_strictly_less_kernel_work_than_slow():
    """Same timings, strictly fewer events: the point of the kernel."""
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << 30, size=4000)
    epoch = run_sample_sort(data.copy(), config=_config(8, "epoch"))
    slow = run_sample_sort(data.copy(), config=_config(8, "slow"))
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    assert epoch.run.sim_events < slow.run.sim_events


# ----------------------------------------------------------------------
# Automatic fallback when a feature needs per-message fidelity
# ----------------------------------------------------------------------
def test_epoch_falls_back_under_network_faults():
    """A network-perturbing fault plan degrades epoch to per-message
    simulation; both configured paths then agree event-for-event."""
    rng = np.random.default_rng(9)
    data = rng.integers(0, 1 << 30, size=2000)
    machine = MachineConfig(p=4).with_faults(
        FaultPlan(seed=5, drop_prob=0.1, delay_jitter_cycles=200.0)
    )
    runs = {
        path: run_sample_sort(data.copy(), config=_config(4, path, machine=machine))
        for path in PATHS
    }
    fingerprints = {path: _phase_fingerprint(r.run) for path, r in runs.items()}
    assert fingerprints["epoch"] == fingerprints["slow"]
    # The degraded epoch run does the oracle's per-message work.
    assert runs["epoch"].run.sim_events == runs["slow"].run.sim_events
    np.testing.assert_array_equal(runs["epoch"].result, runs["slow"].result)


def test_epoch_falls_back_under_send_pacing():
    rng = np.random.default_rng(13)
    data = rng.integers(0, 1 << 30, size=2000)

    def run(path):
        return run_sample_sort(
            data.copy(),
            config=RunConfig(
                machine=MachineConfig(p=4),
                software=SoftwareConfig(sync_path=path, send_pacing_cycles=50.0),
                seed=5,
            ),
        )

    epoch, slow = run("epoch"), run("slow")
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    assert epoch.run.sim_events == slow.run.sim_events


def exchange_program(ctx, A):
    """Two phases touching put, get and local traffic."""
    n = len(A)
    ctx.put(A, [(ctx.pid * 4 + 1) % n], [ctx.pid])
    yield ctx.sync()
    ctx.get(A, [(ctx.pid * 4 + 2) % n])
    yield ctx.sync()


def _path_counts(qm: QSMMachine) -> dict:
    result = qm.run(exchange_program, A=qm.allocate("a", 16))
    counts = qm._engine.path_counts
    assert sum(counts.values()) == len(result.phases) == 2
    return counts


def test_step_hook_tracing_runs_on_slow():
    """Per-event kernel tracing needs the oracle's events."""
    from repro.sim.trace import TraceRecorder

    qm = QSMMachine(_config(4, "epoch"))
    trace = TraceRecorder(qm.machine.sim)
    assert _path_counts(qm) == {"slow": 2, "epoch": 0}
    assert trace.of_kind("grant")


# ----------------------------------------------------------------------
# Observed and sanitized runs stay on the epoch kernel
# ----------------------------------------------------------------------
def test_observed_run_stays_on_epoch(obs_state):
    """Spans plus metrics collection must not switch kernels."""
    assert obs_state.record_spans
    assert _path_counts(QSMMachine(_config(4, "epoch"))) == {"slow": 0, "epoch": 2}


def test_sanitized_run_stays_on_epoch(sanitizer):
    assert _path_counts(QSMMachine(_config(4, "epoch"))) == {"slow": 0, "epoch": 2}
    assert sanitizer.diagnostics == []


# ----------------------------------------------------------------------
# Config resolution: enum, env, the removed path
# ----------------------------------------------------------------------
def test_sync_path_resolution_and_default(monkeypatch):
    """QSM_SYNC_PATH gates the default; an explicit field always wins."""
    monkeypatch.delenv("QSM_SYNC_PATH", raising=False)
    assert [m.value for m in SyncPath] == ["slow", "epoch"]
    assert SoftwareConfig().sync_path is SyncPath.EPOCH
    assert SoftwareConfig(sync_path="slow").sync_path is SyncPath.SLOW
    assert SoftwareConfig(sync_path=SyncPath.SLOW).sync_path is SyncPath.SLOW
    monkeypatch.setenv("QSM_SYNC_PATH", "slow")
    assert SoftwareConfig().sync_path is SyncPath.SLOW
    # explicit field beats the environment
    assert SoftwareConfig(sync_path="epoch").sync_path is SyncPath.EPOCH


def test_invalid_sync_path_env_raises(monkeypatch):
    monkeypatch.setenv("QSM_SYNC_PATH", "warp")
    with pytest.raises(ValueError, match="QSM_SYNC_PATH"):
        SoftwareConfig()


def test_invalid_sync_path_field_raises():
    with pytest.raises(ValueError):
        SoftwareConfig(sync_path="turbo")


def test_fast_sync_field_is_deprecated(monkeypatch, capsys):
    """The deprecated ``fast_sync`` field and the deleted ``fast`` path
    value now fail loudly, naming the valid paths."""
    from repro.experiments.cli import main

    monkeypatch.delenv("QSM_SYNC_PATH", raising=False)
    for value in (True, False):
        with pytest.raises(TypeError, match="fast_sync.*sync_path=.*slow, epoch"):
            SoftwareConfig(fast_sync=value)
    with pytest.raises(ValueError, match="sync_path.*slow, epoch"):
        SoftwareConfig(sync_path="fast")
    with pytest.raises(SystemExit):
        main(["run", "fig1", "--fast", "--sync-path", "fast"])
    assert "'slow', 'epoch'" in capsys.readouterr().err


def test_fast_sync_env_is_deprecated(monkeypatch):
    """The deprecated ``QSM_FAST_SYNC`` no longer selects a path, and
    ``QSM_SYNC_PATH=fast`` fails naming the valid paths."""
    monkeypatch.delenv("QSM_SYNC_PATH", raising=False)
    monkeypatch.setenv("QSM_FAST_SYNC", "0")
    assert SoftwareConfig().sync_path is SyncPath.EPOCH
    monkeypatch.setenv("QSM_SYNC_PATH", "fast")
    with pytest.raises(ValueError, match="QSM_SYNC_PATH.*slow, epoch"):
        SoftwareConfig()


# ----------------------------------------------------------------------
# Experiment pipelines: identical figure data on every path
# ----------------------------------------------------------------------
def _cli_figure_data(fig, tmp_path, monkeypatch, path):
    import json

    from repro.experiments.cli import main

    monkeypatch.setenv("QSM_SYNC_PATH", path)
    out = tmp_path / f"{fig}_{path}.json"
    assert main(["run", fig, "--fast", "--json", str(out)]) == 0
    return json.loads(out.read_text())["data"]


@pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
def test_cli_figures_identical_across_paths(fig, tmp_path, monkeypatch):
    slow, epoch = (_cli_figure_data(fig, tmp_path, monkeypatch, path) for path in PATHS)
    assert slow == epoch


def test_cli_sync_path_flag(tmp_path, monkeypatch):
    """`--sync-path` selects the path for the whole run (and its --jobs
    workers, via the environment) and restores the environment after."""
    import json
    import os

    from repro.experiments.cli import main

    monkeypatch.delenv("QSM_SYNC_PATH", raising=False)
    results = {}
    for path in PATHS:
        out = tmp_path / f"flag_{path}.json"
        assert main(["run", "fig1", "--fast", "--json", str(out), "--sync-path", path]) == 0
        assert "QSM_SYNC_PATH" not in os.environ, "flag leaked into the environment"
        results[path] = json.loads(out.read_text())["data"]
    assert results["slow"] == results["epoch"]


def test_cli_sync_path_flag_restores_callers_value(tmp_path, monkeypatch):
    """An in-process `main([... "--sync-path", ...])` puts back a value
    the caller had exported instead of deleting it."""
    import os

    from repro.experiments.cli import main

    monkeypatch.setenv("QSM_SYNC_PATH", "slow")
    out = tmp_path / "fig1.json"
    assert main(["run", "fig1", "--fast", "--json", str(out), "--sync-path", "epoch"]) == 0
    assert os.environ["QSM_SYNC_PATH"] == "slow"
