"""Figure 8: topology sensitivity of sample sort at fixed p.

Sweeps the cluster-of-multicores machine over the two axes the flat
g/o/l model cannot express — how much cheaper the intra-node tier is
than the network (the *ratio* ``inter/intra``) and how many cores
share one node (and therefore one inter-node wire) — and compares the
measured communication time at a fixed problem size against the flat
QSM closed form and its topology-aware twin (``qsm-cluster``, the
traffic-weighted tier mix of docs/MODEL.md).

Expected shape: the first row (the flat topology) reproduces the
legacy machine exactly — the same cycle counts as fig2's points at the
same n and seed, and the same store keys as the full fig4/fig5 sweep's
l = 1600 points and the full fig6 sweep's o = 400 points at that n
(fig2 keys its points on its own worker, so its keys differ).  Cluster
rows expose the two competing effects:
cheap intra-node traffic pulls communication *down* (more so at high
ratio and high cores-per-node, where more traffic stays on-node),
while the shared per-node wire pushes it *up* (all ``c`` cores drain
inter-node traffic through one resource).  ``qsm-cluster`` tracks the
first effect and prices below ``qsm-best``; the gap between it and the
measurement is the wire-contention cost no per-word model captures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.experiments.base import (
    ExperimentResult,
    mean_std_robust,
    render_table,
    reps_for,
)
from repro.experiments.executor import parallel_map
from repro.experiments.sweeps import _point_tasks, _sweep_point_task
from repro.machine.config import ClusterTopology, MachineConfig, Topology
from repro.predict import make_source, predict_point, resolve_models
from repro.qsmlib import RunConfig, cost_model_for

#: Fixed problem size: large enough that per-word costs dominate the
#: per-sync floor, small enough to keep the grid affordable.
FULL_N = 65536
FAST_N = 8192

#: How much cheaper the intra-node tier is than the network
#: (``inter/intra`` for g and o alike; intra latency is always 0).
FULL_RATIOS = [2.0, 8.0, 32.0]
FAST_RATIOS = [2.0, 8.0]

FULL_CORES = [2, 4, 8]
FAST_CORES = [2, 4]

#: Default prediction lines: the flat closed form and its tier-mixed
#: twin (at least one topology-aware model, per the report contract).
FIG8_MODELS = ("qsm-best", "qsm-cluster")


def _grid_topologies(
    base: Optional[ClusterTopology],
    ratios: Sequence[float],
    cores_list: Sequence[int],
    network,
) -> List[ClusterTopology]:
    """The cluster grid: intra tier = network tier / ratio, per cores.

    When the CLI pins a base cluster (``--topology cluster,...``), its
    wire gap override is kept and only the swept axes vary.
    """
    wire = base.node_wire_gap_cycles_per_byte if base is not None else None
    out = []
    for cores in cores_list:
        for ratio in ratios:
            out.append(
                ClusterTopology(
                    cores_per_node=cores,
                    intra_gap_cycles_per_byte=network.gap_cycles_per_byte / ratio,
                    intra_overhead_cycles=network.overhead_cycles / ratio,
                    intra_latency_cycles=0.0,
                    node_wire_gap_cycles_per_byte=wire,
                )
            )
    return out


def run(
    fast: bool = False,
    seed: int = 0,
    jobs: int = 1,
    models: Union[str, Sequence[str], None] = None,
    topology: Optional[Topology] = None,
) -> ExperimentResult:
    n = FAST_N if fast else FULL_N
    ratios = FAST_RATIOS if fast else FULL_RATIOS
    cores_list = FAST_CORES if fast else FULL_CORES
    reps = reps_for(fast)
    model_names = resolve_models(models, default=FIG8_MODELS)

    flat = MachineConfig()
    base = topology if isinstance(topology, ClusterTopology) else None
    machines = [flat] + [
        MachineConfig(topology=t)
        for t in _grid_topologies(base, ratios, cores_list, flat.network)
    ]

    # One flat task pool over the whole grid: each task carries its
    # machine config, so the result store partitions the points by
    # topology.  The flat rows share store keys with the fig4/fig5 and
    # fig6 sweeps at their default l and o (same worker, same tasks).
    # Every machine sorts the same inputs, so the executor runs each
    # input's points back to back and the cluster rows price the flat
    # row's recording.
    tasks = [t for m in machines for t in _point_tasks(m, [n], reps, seed)]
    comms = parallel_map(_sweep_point_task, tasks, jobs=jobs)

    headers = ["topology", "cores", "ratio", "comm_measured"]
    for name in model_names:
        headers += [name, f"{name}_err%"]

    rows: List[list] = []
    records = []
    for i, machine in enumerate(machines):
        cm, _ = mean_std_robust(comms[i * reps : (i + 1) * reps])
        topo = machine.topology
        if topo.is_flat:
            label, cores, ratio = "flat", 1, 1.0
        else:
            label = "cluster"
            cores = topo.cores_per_node
            ratio = flat.network.gap_cycles_per_byte / topo.intra_gap_cycles_per_byte
        costs, cpu = cost_model_for(RunConfig(machine=machine))
        source = make_source("samplesort", p=machine.p, cpu=cpu)
        row = [label, cores, round(ratio, 3), round(cm)]
        for rec in predict_point(source, model_names, costs, n=n):
            err = (rec.comm_cycles - cm) / cm * 100.0 if cm else float("nan")
            row += [round(rec.comm_cycles), round(err, 1)]
            records.append(rec)
        rows.append(row)

    result = render_table(
        "fig8",
        f"Sample sort under cluster topologies (p=16, n={n}): measured vs "
        "flat and tier-mixed predictions",
        headers,
        rows,
    )
    result.data["n"] = n
    result.data["models"] = list(model_names)
    result.data["predictions"] = [rec.to_dict() for rec in records]
    result.data["topology"] = (
        f"grid: cores_per_node={list(cores_list)} x inter/intra "
        f"ratio={list(ratios)} (+ flat baseline)"
    )
    return result
