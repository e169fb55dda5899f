"""Figure 1: measured vs. predicted performance for prefix sums.

Plots (as a table): total running time, measured communication time,
and one prediction line per registered model requested via ``models``
(default :data:`repro.predict.PREFIX_MODELS`), against n at p = 16.

Expected shape (§3.2 "Prefix"): both predictions are *constant* in n
and far below the measured communication time — the messages are tiny,
so per-message overhead, latency, plan distribution and the barrier
dominate; QSM sits below BSP because it also omits L.  The relative
error is large but the absolute error is small compared to total
running time, and shrinks in relative-to-total terms as n grows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.algorithms.prefix import run_prefix_sums
from repro.experiments.base import (
    ExperimentResult,
    drop_failed,
    mean_std,
    render_series,
    reps_for,
)
from repro.experiments.executor import parallel_map
from repro.machine.config import MachineConfig, Topology
from repro.predict import PREFIX_MODELS, make_source, predict_point, resolve_models
from repro.qsmlib import RunConfig, cost_model_for

FULL_NS = [4096, 16384, 65536, 262144, 1048576]
FAST_NS = [4096, 32768, 262144]


def _fig1_point_task(task):
    """One (machine, n, run_seed) point: the measured prefix-sums run.

    Module-level (picklable) for the --jobs process pool and the result
    cache (the machine config in the task salts the store key, so flat
    and cluster sweeps never share cached points); the run record
    travels back to the parent, where predictions are priced uniformly.
    """
    machine, n, run_seed = task
    rng = np.random.default_rng(run_seed)
    out = run_prefix_sums(
        rng.integers(0, 1000, size=n),
        RunConfig(machine=machine, seed=run_seed, check_semantics=False),
    )
    return out.run


def run(
    fast: bool = False,
    seed: int = 0,
    ns: Optional[List[int]] = None,
    jobs: int = 1,
    models: Union[str, Sequence[str], None] = None,
    topology: Optional[Topology] = None,
) -> ExperimentResult:
    ns = ns or (FAST_NS if fast else FULL_NS)
    reps = reps_for(fast)
    machine = MachineConfig() if topology is None else MachineConfig(topology=topology)
    config = RunConfig(machine=machine, seed=seed, check_semantics=False)
    costs, cpu = cost_model_for(config)
    source = make_source("prefix", p=config.machine.p, cpu=cpu)
    model_names = resolve_models(models, default=PREFIX_MODELS)

    tasks = [(machine, n, seed + 1000 * r + 1) for n in ns for r in range(reps)]
    measured = parallel_map(_fig1_point_task, tasks, jobs=jobs)

    total_mean, comm_mean, comm_rel_std = [], [], []
    pred_series = {name: [] for name in model_names}
    records = []
    for i, n in enumerate(ns):
        runs = drop_failed(measured[i * reps : (i + 1) * reps])
        if not runs:
            # Every rep of this point failed (resilient executor): the
            # point renders as a gap but the rest of the figure stands.
            nan = float("nan")
            total_mean.append(nan)
            comm_mean.append(nan)
            comm_rel_std.append(nan)
            for name in model_names:
                pred_series[name].append(nan)
            continue
        cm, cs = mean_std([rr.comm_cycles for rr in runs])
        tm, _ = mean_std([rr.total_cycles for rr in runs])
        total_mean.append(round(tm))
        comm_mean.append(round(cm))
        comm_rel_std.append(round(cs / cm, 4) if cm else 0.0)
        for rec in predict_point(source, model_names, costs, n=n, runs=runs):
            pred_series[rec.model].append(round(rec.comm_cycles))
            records.append(rec)

    title = "Prefix sums: measured vs predicted communication (cycles, p=16)"
    if not machine.topology.is_flat:
        title += f" [{machine.topology.describe()}]"
    result = render_series(
        "fig1",
        title,
        "n",
        ns,
        {
            "total_measured": total_mean,
            "comm_measured": comm_mean,
            "comm_rel_std": comm_rel_std,
            **pred_series,
        },
    )
    result.data["models"] = list(model_names)
    result.data["predictions"] = [rec.to_dict() for rec in records]
    result.data["topology"] = machine.topology.describe()
    return result
