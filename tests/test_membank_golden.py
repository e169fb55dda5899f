"""Bit-exact pin of the §4 memory-bank microbenchmark.

``tests/data/membank_golden.json`` holds ``float.hex`` of every
reported figure (mean access time, per-processor means, peak bank
utilisation) for Figure 7's machines and patterns, plus one faulted run
and one observed run.  Any change to event order in the driver — even a
same-instant reordering — moves at least one of these numbers.

Regenerate (only when a model parameter changes on purpose) with::

    PYTHONPATH=src python tests/test_membank_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro import faults, obs
from repro.experiments.fig7_membank import FAST_P_SWEEP, FULL_P_SWEEP
from repro.faults.plan import FaultPlan
from repro.membank import CONFLICT, MEMBANK_MACHINES, NOCONFLICT, RANDOM, run_microbenchmark

GOLDEN = Path(__file__).parent / "data" / "membank_golden.json"
ACCESSES = 400
PATTERNS = (NOCONFLICT, RANDOM, CONFLICT)
STALL_PLAN = FaultPlan(seed=4, bank_stall_prob=0.05, bank_stall_cycles=40.0)


def _figures(res) -> dict:
    return {
        "mean": float(res.mean_access_cycles).hex(),
        "per_proc": [float(x).hex() for x in res.per_proc_mean_cycles],
        "util": float(res.max_bank_utilization).hex(),
    }


def _grid(sweep, seed: int) -> dict:
    out = {}
    for name, ps in sweep.items():
        for p in ps:
            cfg = MEMBANK_MACHINES[name](p)
            for pattern in PATTERNS:
                res = run_microbenchmark(cfg, pattern, accesses_per_proc=ACCESSES, seed=seed)
                out[f"{name}/p={p}/{pattern.name}/seed={seed}"] = _figures(res)
    return out


def _faulted() -> dict:
    faults.reset_tally()
    res = run_microbenchmark(
        MEMBANK_MACHINES["SMP-NATIVE"](8), RANDOM,
        accesses_per_proc=ACCESSES, seed=2, fault_plan=STALL_PLAN,
    )
    tally = faults.drain_tally()
    return dict(_figures(res), bank_stalls=tally["fault.bank_stalls"])


def _observed() -> dict:
    obs.enable()
    try:
        res = run_microbenchmark(MEMBANK_MACHINES["NOW-BSPlib"](8), CONFLICT,
                                 accesses_per_proc=60, seed=3)
        spans = [s for s in obs.runs()[-1].spans if s.name == "membank.access"]
        events = obs.metrics().counter("sim.events_processed").value
    finally:
        obs.disable()
    first, last = spans[0], spans[-1]
    return dict(
        _figures(res),
        spans=len(spans),
        first=[float(first.t0).hex(), float(first.t1).hex(), first.track],
        last=[float(last.t0).hex(), float(last.t1).hex(), last.track],
        events=events,
    )


def snapshot() -> dict:
    return {
        "grid": {**_grid(FULL_P_SWEEP, seed=0), **_grid(FAST_P_SWEEP, seed=1)},
        "faulted": _faulted(),
        "observed": _observed(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_grid_bit_identical(golden):
    got = {**_grid(FULL_P_SWEEP, seed=0), **_grid(FAST_P_SWEEP, seed=1)}
    assert got.keys() == golden["grid"].keys()
    for key, want in golden["grid"].items():
        assert got[key] == want, key


def test_faulted_run_bit_identical(golden):
    assert _faulted() == golden["faulted"]


def test_observed_run_bit_identical(golden):
    assert _observed() == golden["observed"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
