"""Figure 2: measured vs. predicted performance for sample sort.

Measured communication time (mean of 10 runs) against n at p = 16,
next to one line per requested prediction model (default
:data:`repro.predict.PAPER_MODELS`: the paper's *Best case* /
*WHP bound* closed forms plus the observed-skew *QSM estimate* and
*BSP estimate*).

Expected shape (§3.2 "Sample Sort"): QSM underestimates by a roughly
constant amount (the o/l/plan/barrier costs it ignores), so accuracy
improves with n — within 10% of measured communication for n ≳ 125,000
(8000 elements per processor); the Best-case and WHP lines bound the
measurement over nearly the whole range.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.algorithms.samplesort import run_sample_sort
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

FULL_NS = [4096, 8192, 16384, 32768, 65536, 125000, 250000, 500000]
FAST_NS = [8192, 65536, 250000]


def _fig2_point_task(task) -> tuple:
    """One (machine, n, run_seed) point: the measured run.

    Module-level (picklable) for the --jobs process pool and the result
    cache (the machine config in the task salts the store key, so flat
    and cluster sweeps never share cached points); the run record
    travels back to the parent, where every requested model — including
    the observed-skew ones — is priced uniformly.
    """
    machine, n, run_seed = task
    rng = np.random.default_rng(run_seed)
    out = run_sample_sort(
        rng.integers(0, 2**62, size=n),
        RunConfig(machine=machine, seed=run_seed, check_semantics=False),
    )
    return out.run.comm_cycles, out.run.total_cycles, out.run


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
    source = make_source("samplesort", p=config.machine.p, cpu=cpu)
    model_names = resolve_models(models, default=PAPER_MODELS)

    tasks = [(machine, n, seed + 1000 * r + 1) for n in ns for r in range(reps)]
    measured = parallel_map(_fig2_point_task, tasks, jobs=jobs)

    comm_mean, comm_rel_std, total_mean = [], [], []
    pred_series = {name: [] for name in model_names}
    records = []
    for i, n in enumerate(ns):
        group = drop_failed(measured[i * reps : (i + 1) * reps])
        if not group:
            # Every rep of this point failed (resilient executor): the
            # point renders as a gap but the rest of the figure stands.
            nan = float("nan")
            comm_mean.append(nan)
            comm_rel_std.append(nan)
            total_mean.append(nan)
            for name in model_names:
                pred_series[name].append(nan)
            continue
        comms, totals, runs = map(list, zip(*group))
        cm, cs = mean_std(comms)
        comm_mean.append(round(cm))
        comm_rel_std.append(round(cs / cm, 4))
        total_mean.append(round(mean_std(totals)[0]))
        for rec in predict_point(source, model_names, costs, n=n, runs=runs):
            pred_series[rec.model].append(round(rec.comm_cycles))
            records.append(rec)

    title = "Sample sort: measured vs predicted communication (cycles, p=16)"
    if not machine.topology.is_flat:
        title += f" [{machine.topology.describe()}]"
    result = render_series(
        "fig2",
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
