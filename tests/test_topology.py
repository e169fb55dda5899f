"""The two-tier cluster topology: identity, validation, pricing, CLI.

The topology layer carries two contracts at once:

* **Flat is bit-identical to the pre-topology machine.**  A default
  ``MachineConfig()`` must produce exactly the cycle counts it produced
  before topology existed, under both sync paths — the pinned
  constants below were captured on the flat-only machine layer.
* **Cluster is path-independent.**  The slow (per-message DES) and
  epoch (vectorized) paths must agree bit-for-bit on cluster machines
  too: the tiers change the costs, never the model.

Plus the satellite surfaces: config validation, the traffic-weighted
effective cost mix, the topology-aware and fault-aware prediction
models, store-key invalidation, and the CLI flag.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults as _faults
from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.faults.plan import FaultPlan
from repro.machine.config import (
    ClusterTopology,
    FlatTopology,
    MachineConfig,
    available_topologies,
    parse_topology,
)
from repro.predict import make_source, predict_value
from repro.qsmlib import QSMMachine, RunConfig
from repro.qsmlib.config import SoftwareConfig
from repro.store import point_key

PATHS = ("slow", "epoch")

#: Pre-topology goldens: samplesort p=16 n=8192 (rng(42), seed=1) and
#: prefix p=16 n=4096 (rng(7), seed=1) on the default flat machine.
FLAT_SAMPLESORT_COMM = 1725971.033437996
FLAT_SAMPLESORT_TOTAL = 1752097.8520399856
FLAT_PREFIX_COMM = 50503.99999999999
FLAT_PREFIX_TOTAL = 52361.24


def _config(machine: MachineConfig, path: str) -> RunConfig:
    return RunConfig(
        machine=machine,
        software=SoftwareConfig(sync_path=path),
        seed=1,
        check_semantics=False,
    )


def _fingerprint(run) -> tuple:
    return tuple(
        (ph.start, ph.ready, ph.end, tuple(ph.compute_cycles)) for ph in run.phases
    ) + (run.comm_cycles, run.total_cycles)


# ----------------------------------------------------------------------
# Flat stays bit-identical to the pre-topology machine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", PATHS)
def test_flat_samplesort_matches_pretopology_golden(path):
    rng = np.random.default_rng(42)
    out = run_sample_sort(
        rng.integers(0, 2**62, size=8192), _config(MachineConfig(), path)
    )
    assert out.run.comm_cycles == FLAT_SAMPLESORT_COMM
    assert out.run.total_cycles == FLAT_SAMPLESORT_TOTAL


@pytest.mark.parametrize("path", PATHS)
def test_flat_prefix_matches_pretopology_golden(path):
    rng = np.random.default_rng(7)
    out = run_prefix_sums(
        rng.integers(0, 1000, size=4096), _config(MachineConfig(), path)
    )
    assert out.run.comm_cycles == FLAT_PREFIX_COMM
    assert out.run.total_cycles == FLAT_PREFIX_TOTAL


# ----------------------------------------------------------------------
# Cluster runs are sync-path independent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p,cores", [(4, 2), (8, 2), (8, 4)])
def test_cluster_samplesort_bit_identical_on_all_paths(p, cores):
    machine = MachineConfig(p=p, topology=ClusterTopology(cores_per_node=cores))
    fps = {}
    for path in PATHS:
        rng = np.random.default_rng(42)
        out = run_sample_sort(
            rng.integers(0, 2**62, size=2048), _config(machine, path)
        )
        fps[path] = _fingerprint(out.run)
    assert fps["epoch"] == fps["slow"]


@pytest.mark.parametrize("p,cores", [(8, 4)])
def test_cluster_prefix_and_listrank_bit_identical_on_all_paths(p, cores):
    machine = MachineConfig(p=p, topology=ClusterTopology(cores_per_node=cores))
    for runner in (
        lambda cfg: run_prefix_sums(
            np.random.default_rng(7).integers(0, 1000, size=2048), cfg
        ),
        lambda cfg: run_list_ranking(make_random_list(1024, seed=3), cfg),
    ):
        fps = {path: _fingerprint(runner(_config(machine, path)).run) for path in PATHS}
        assert fps["epoch"] == fps["slow"]


def test_cluster_with_wire_override_bit_identical_on_all_paths():
    machine = MachineConfig(
        p=8,
        topology=ClusterTopology(cores_per_node=4, node_wire_gap_cycles_per_byte=6.0),
    )
    fps = {}
    for path in PATHS:
        rng = np.random.default_rng(42)
        out = run_sample_sort(
            rng.integers(0, 2**62, size=2048), _config(machine, path)
        )
        fps[path] = _fingerprint(out.run)
    assert fps["epoch"] == fps["slow"]


@pytest.mark.parametrize(
    "p,cores,ratio,seed",
    [
        # Chunks from several senders reach one node wire at one instant.
        (16, 4, 2.0, 1),
        # Zero intra latency: an arrival ties with a delivery at the same
        # receive engine, which decides the next same-instant ties.
        (3, 3, 1.0, 376),
    ],
)
def test_cluster_same_instant_ties_bit_identical_on_all_paths(p, cores, ratio, seed):
    """Same-instant ties at a receive resource break the same way on the
    oracle as on the epoch kernel: arrivals take the order their sending
    stages began, then their send order."""
    net = MachineConfig().network
    topo = ClusterTopology(
        cores_per_node=cores,
        intra_gap_cycles_per_byte=net.gap_cycles_per_byte / ratio,
        intra_overhead_cycles=net.overhead_cycles / ratio,
    )
    fps = {}
    for path in PATHS:
        out = run_sample_sort(
            np.random.default_rng(seed).integers(0, 2**62, size=2048),
            RunConfig(
                machine=MachineConfig(p=p, topology=topo),
                software=SoftwareConfig(sync_path=path),
                seed=seed,
                check_semantics=False,
            ),
        )
        fps[path] = _fingerprint(out.run)
    assert fps["epoch"] == fps["slow"]


def test_degenerate_cluster_equals_flat():
    """cores=1 with intra == inter tiers is the flat machine exactly."""
    net = MachineConfig().network
    topo = ClusterTopology(
        cores_per_node=1,
        intra_gap_cycles_per_byte=net.gap_cycles_per_byte,
        intra_overhead_cycles=net.overhead_cycles,
        intra_latency_cycles=net.latency_cycles,
        node_wire_gap_cycles_per_byte=net.gap_cycles_per_byte,
    )
    rng = np.random.default_rng(42)
    out = run_sample_sort(
        rng.integers(0, 2**62, size=8192),
        _config(MachineConfig(topology=topo), "epoch"),
    )
    assert out.run.comm_cycles == FLAT_SAMPLESORT_COMM
    assert out.run.total_cycles == FLAT_SAMPLESORT_TOTAL


def test_cluster_shared_wire_costs_more_than_flat():
    """The default cluster's shared per-node wire serialises inter-node
    receives: with 4 cores per wire, contention outweighs the cheap
    intra tier on samplesort's all-to-all traffic."""
    machine = MachineConfig(topology=ClusterTopology(cores_per_node=4))
    rng = np.random.default_rng(42)
    out = run_sample_sort(rng.integers(0, 2**62, size=8192), _config(machine, "epoch"))
    assert out.run.comm_cycles > FLAT_SAMPLESORT_COMM


# ----------------------------------------------------------------------
# Config parsing and validation
# ----------------------------------------------------------------------
def test_available_topologies():
    assert available_topologies() == ("flat", "cluster")


def test_parse_topology_specs():
    assert parse_topology("flat") == FlatTopology()
    topo = parse_topology("cluster,cores=2,intra_g=0.5,wire_g=6")
    assert topo == ClusterTopology(
        cores_per_node=2,
        intra_gap_cycles_per_byte=0.5,
        node_wire_gap_cycles_per_byte=6.0,
    )


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ("bogus", "available topologies: flat, cluster"),
        ("flat,cores=2", "takes no parameters"),
        ("cluster,nope=1", "known keys"),
    ],
)
def test_parse_topology_rejects_bad_specs(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_topology(spec)


def test_cores_must_divide_p():
    with pytest.raises(ValueError, match="cores_per_node=3 does not divide p=16"):
        MachineConfig(p=16, topology=ClusterTopology(cores_per_node=3))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cores_per_node": 0},
        {"intra_gap_cycles_per_byte": -1.0},
        {"intra_overhead_cycles": -1.0},
        {"intra_latency_cycles": -1.0},
        {"node_wire_gap_cycles_per_byte": 0.0},
    ],
)
def test_cluster_rejects_bad_tier_costs(kwargs):
    with pytest.raises(ValueError):
        ClusterTopology(**kwargs)


def test_cluster_node_helpers():
    topo = ClusterTopology(cores_per_node=4)
    assert topo.n_nodes(16) == 4
    assert [topo.node_of(pid) for pid in (0, 3, 4, 15)] == [0, 0, 1, 3]
    assert topo.intra_peer_fraction(16) == (4 - 1) / (16 - 1)
    assert FlatTopology().intra_peer_fraction(16) == 0.0


# ----------------------------------------------------------------------
# Effective (tier-mixed) cost model
# ----------------------------------------------------------------------
def _costs(machine: MachineConfig):
    qm = QSMMachine(RunConfig(machine=machine, seed=0, check_semantics=False))
    return qm.cost_model(), qm.machine.cpus[0]


def test_effective_is_identity_on_flat():
    costs, _ = _costs(MachineConfig())
    assert costs.effective(16) is costs


def test_effective_mixes_word_costs():
    costs, _ = _costs(MachineConfig(topology=ClusterTopology(cores_per_node=4)))
    eff = costs.effective(16)
    f = 3 / 15
    intra = costs.intra_tier()
    assert eff.put_word_cycles == f * intra.put_word_cycles + (1.0 - f) * costs.put_word_cycles
    assert eff.get_word_cycles == f * intra.get_word_cycles + (1.0 - f) * costs.get_word_cycles
    assert eff.put_word_cycles < costs.put_word_cycles
    # Phase-level overheads stay at the inter tier (trees cross nodes).
    assert eff.barrier_cycles(16) == costs.barrier_cycles(16)
    assert eff.sync_floor_cycles(16) == costs.sync_floor_cycles(16)


# ----------------------------------------------------------------------
# Topology-aware and fault-aware prediction models
# ----------------------------------------------------------------------
def test_cluster_models_equal_flat_twins_on_flat_topology():
    costs, cpu = _costs(MachineConfig())
    source = make_source("samplesort", p=16, cpu=cpu)
    for pair in (("qsm-cluster", "qsm-best"), ("bsp-cluster", "bsp-best"),
                 ("logp-cluster", "logp"), ("qsm-faulty", "qsm-best")):
        aware, flat = pair
        assert predict_value(source, aware, costs, n=8192) == predict_value(
            source, flat, costs, n=8192
        ), pair


def test_cluster_models_price_the_tier_mix():
    costs, cpu = _costs(MachineConfig(topology=ClusterTopology(cores_per_node=4)))
    source = make_source("samplesort", p=16, cpu=cpu)
    assert predict_value(source, "qsm-cluster", costs, n=8192) < predict_value(
        source, "qsm-best", costs, n=8192
    )
    assert predict_value(source, "logp-cluster", costs, n=8192) < predict_value(
        source, "logp", costs, n=8192
    )


def test_qsm_faulty_golden_closed_form():
    costs, cpu = _costs(MachineConfig())
    source = make_source("samplesort", p=16, cpu=cpu)
    base = predict_value(source, "qsm-best", costs, n=8192)
    plan = FaultPlan(drop_prob=0.1, delay_jitter_cycles=100.0)
    _faults.arm(plan)
    try:
        got = predict_value(source, "qsm-faulty", costs, n=8192)
    finally:
        _faults.disarm()
    want = base * costs.fault_traffic_factor(plan) + (
        source.N_SYNCS * costs.fault_extra_latency_cycles(plan)
    )
    assert got == want
    assert got > base


# ----------------------------------------------------------------------
# Store keys and CLI
# ----------------------------------------------------------------------
def test_point_key_salted_by_topology():
    flat = MachineConfig()
    clus = MachineConfig(topology=ClusterTopology(cores_per_node=4))
    clus2 = MachineConfig(topology=ClusterTopology(cores_per_node=8))
    keys = {point_key("worker", (m, 8192, 1)) for m in (flat, clus, clus2)}
    assert len(keys) == 3
    assert point_key("worker", (flat, 8192, 1)) == point_key(
        "worker", (MachineConfig(), 8192, 1)
    )


def test_cli_rejects_unknown_topology(capsys):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "fig1", "--topology", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "available topologies: flat, cluster" in err


def test_cli_run_reports_topology_in_json(tmp_path, capsys):
    from repro.experiments.cli import main
    import json

    out = tmp_path / "fig1.json"
    assert main(
        ["run", "fig1", "--fast", "--ns", "4096",
         "--topology", "cluster,cores=4", "--json", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["data"]["topology"].startswith("cluster(cores=4")
    assert "cluster(cores=4" in payload["title"]


def test_fig8_flat_row_matches_cluster_aware_predictions():
    from repro.experiments import fig8_topology

    result = fig8_topology.run(fast=True, seed=0)
    headers = result.data["headers"]
    rows = result.data["rows"]
    assert headers[:4] == ["topology", "cores", "ratio", "comm_measured"]
    assert "qsm-cluster" in headers
    assert result.data["topology"].startswith("grid:")
    flat_rows = [r for r in rows if r[0] == "flat"]
    assert len(flat_rows) == 1
    # On the flat baseline the tier-mixed model degenerates to qsm-best.
    i_best = headers.index("qsm-best")
    i_cluster = headers.index("qsm-cluster")
    assert flat_rows[0][i_best] == flat_rows[0][i_cluster]
    # Cluster rows price the mix strictly below the flat closed form.
    for row in rows:
        if row[0] == "cluster":
            assert row[i_cluster] < row[i_best]


def test_fig8_flat_rows_share_store_keys_with_full_fig4_and_fig6(monkeypatch):
    """fig8's flat rows are the full fig4/fig5 sweep's l=1600 points and
    the full fig6 sweep's o=400 points at n=8192 (same worker, same
    tasks, so the same store keys); fig2 keys its points on its own
    worker, so it shares their cycle counts but not their keys."""
    from repro.experiments import fig8_topology, sweeps
    from repro.experiments.executor import _fn_name
    from repro.experiments.fig2_samplesort import _fig2_point_task
    from repro.experiments.registry import run_experiment

    class Captured(Exception):
        pass

    def tasks_of(exp_id: str, fast: bool) -> list:
        calls = []

        def fake_map(fn, tasks, jobs=1):
            calls.extend((fn, t) for t in tasks)
            raise Captured  # each of these experiments maps its points once

        monkeypatch.setattr(sweeps, "parallel_map", fake_map)
        monkeypatch.setattr(fig8_topology, "parallel_map", fake_map)
        with pytest.raises(Captured):
            run_experiment(exp_id, fast=fast, seed=0)
        return calls

    def keys(calls) -> list:
        return [point_key(_fn_name(fn), t, None) for fn, t in calls]

    fig8_calls = tasks_of("fig8", fast=True)
    flat = [(fn, t) for fn, t in fig8_calls if t[0].topology.is_flat]
    cluster = [(fn, t) for fn, t in fig8_calls if not t[0].topology.is_flat]
    assert len(flat) == 3 and all(t[1] == 8192 for _, t in flat)
    for exp_id in ("fig4", "fig5", "fig6"):
        full = set(keys(tasks_of(exp_id, fast=False)))
        assert set(keys(flat)) <= full, exp_id
        assert not set(keys(cluster)) & full, exp_id

    fig2_keys = {point_key(_fn_name(_fig2_point_task), t, None) for _, t in flat}
    assert not fig2_keys & set(keys(fig8_calls))
    fn, task = flat[0]
    assert _fig2_point_task(task)[0] == fn(task)
