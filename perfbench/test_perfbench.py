"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs start the real program, so the whole file takes a few
minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate_inputs(workload, 7) == workloads.generate_inputs(workload, 7)
    assert workloads.generate_inputs(workload, 7) != workloads.generate_inputs(workload, 8)


def test_service_request_sequence_is_seeded():
    a = workloads.generate_inputs("service-mixed", 3)
    b = workloads.generate_inputs("service-mixed", 3)
    assert a["schedules"] == b["schedules"] and a["warm"] == b["warm"]
    shared = [
        [slot for slot in schedule if slot[0] == "shared"] for schedule in a["schedules"]
    ]
    # Both clients send the same shared requests; the partner sends nothing else.
    assert shared[0] == shared[1] == a["schedules"][1] and shared[0]
    fresh = [slot[2] for schedule in a["schedules"] for slot in schedule if slot[0] == "fresh"]
    assert len(fresh) == len(set(fresh))


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


def test_des_and_epoch_pins_agree():
    pins = workloads.pinned_digests(ROOT)
    for exp in ("fig2", "fig3"):
        assert pins["sweep-cold"][exp] == pins["sweep-des"][exp]
    assert workloads.kernel_mismatches(pins) == []
    pins["sweep-des"]["fig3"] = {"points": "0", "payload": "0"}
    assert workloads.kernel_mismatches(pins) == ["fig3"]


def test_self_times_reconcile():
    tracer = layers.Tracer(spans=True)

    def leaf():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", leaf, (), {})
        tracer.call("inner", leaf, (), {})

    start = time.perf_counter_ns()
    tracer.begin_op()
    tracer.call("outer", outer, (), {})
    wall = time.perf_counter_ns() - start
    total = sum(tracer.self_ns.values())
    root = next(s for s in tracer.spans if s[1] == -1)
    assert total == root[5] - root[4] <= wall
    assert tracer.self_ns["inner"] >= 2 * 10**7
    assert {s[2] for s in tracer.spans} == {0}
    assert len(tracer.spans) == 3


def _run(workload, trace, cwd=ROOT, seconds=0.5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0, proc.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in expected}
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    assert values["check.diagnostics"] == 0
    if workload == "sweep-cold":
        assert values["qsmlib.runtime.des_phases"] == 0 and values["qsmlib.epoch.phases"] > 0
        assert values["store.hits"] == 0 and values["sim.run_s"] < 0.05 * values["qsmlib.epoch.s"]
    if workload == "sweep-des":
        assert values["qsmlib.epoch.phases"] == 0 and values["qsmlib.runtime.des_phases"] > 0
        assert values["check.s"] > 0 and values["obs.metrics"] > 0 and values["membank.s"] > 0
    if workload == "rerun-cached":
        assert values["qsmlib.epoch.phases"] == 0 and values["sim.run_s"] == 0
        assert values["store.hit_ratio"] == 1 and values["store.hits"] == values["experiments.points"]
    if workload == "service-mixed":
        assert values["service.run_p50_s"] > 0 and values["store.put_s"] > 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
