"""Figure 3: measured vs. predicted performance for list ranking.

Same lines as Figure 2, for the irregular-communication workload.

Expected shape (§3.2 "List Ranking"): prediction accuracy improves
with n; the BSP estimate comes within ~15% of measured communication
for n ≳ 40,000 and the QSM estimate for n ≳ 60,000; Best-case and WHP
bound bracket the measurement.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.experiments.base import (
    ExperimentResult,
    drop_failed,
    mean_std,
    render_series,
    reps_for,
)
from repro.experiments.executor import parallel_map
from repro.machine.config import MachineConfig, Topology
from repro.predict import PAPER_MODELS, make_source, predict_point, resolve_models
from repro.qsmlib import RunConfig, cost_model_for

FULL_NS = [8192, 20000, 40000, 60000, 120000, 256000]
FAST_NS = [8192, 40000, 120000]


def _fig3_point_task(task):
    """One (machine, n, run_seed) point: the measured list-ranking run.

    Module-level (picklable) for the --jobs process pool and the result
    cache (the machine config in the task salts the store key, so flat
    and cluster sweeps never share cached points); the run record
    travels back to the parent, where predictions are priced uniformly.
    """
    machine, n, run_seed = task
    succ = make_random_list(n, seed=run_seed)
    out = run_list_ranking(
        succ, RunConfig(machine=machine, seed=run_seed, check_semantics=False)
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
    source = make_source("listrank", p=config.machine.p, cpu=cpu)
    model_names = resolve_models(models, default=PAPER_MODELS)

    tasks = [(machine, n, seed + 1000 * r + 1) for n in ns for r in range(reps)]
    measured = parallel_map(_fig3_point_task, tasks, jobs=jobs)

    comm_mean, comm_rel_std, total_mean = [], [], []
    pred_series = {name: [] for name in model_names}
    records = []
    for i, n in enumerate(ns):
        runs = drop_failed(measured[i * reps : (i + 1) * reps])
        if not runs:
            # Every rep of this point failed (resilient executor): the
            # point renders as a gap but the rest of the figure stands.
            nan = float("nan")
            comm_mean.append(nan)
            comm_rel_std.append(nan)
            total_mean.append(nan)
            for name in model_names:
                pred_series[name].append(nan)
            continue
        cm, cs = mean_std([rr.comm_cycles for rr in runs])
        comm_mean.append(round(cm))
        comm_rel_std.append(round(cs / cm, 4))
        total_mean.append(round(mean_std([rr.total_cycles for rr in runs])[0]))
        for rec in predict_point(source, model_names, costs, n=n, runs=runs):
            pred_series[rec.model].append(round(rec.comm_cycles))
            records.append(rec)

    title = "List ranking: measured vs predicted communication (cycles, p=16)"
    if not machine.topology.is_flat:
        title += f" [{machine.topology.describe()}]"
    result = render_series(
        "fig3",
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
