"""Machine sweeps reuse recordings without changing what they compute.

fig4 and fig8 run each input's machines back to back and price one
recording on all of them.  Their payloads must match the files recorded
before that reuse existed (``tests/data/fig4_fast.json``,
``tests/data/fig8_fast.json``), at any job count; their store keys must
be the ones a store warmed by that code holds; and checkpoint resume
must match points by task, whatever order the tasks come in.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.experiments import executor, fig8_topology, sweeps
from repro.experiments.executor import ExecutionPolicy, _fn_name, parallel_map
from repro.experiments.registry import run_experiment
from repro.store import point_key

DATA = Path(__file__).parent / "data"

#: Store keys of the fast fig4/fig8 sweeps at seed 0, recorded before
#: sweeps priced recordings: ordered-key digest, count, and three keys.
PINNED_KEYS = {
    "fig4": {
        "count": 36,
        "ordered_digest": "11e9312a771ab244401e8e441d8acf265707b69b19eba9ca225f8eb2d707f50f",
        "first": "0f16aa95d421a4e8a0e8dfc6490277808e2a9c37df504596e91a674c17e5b620",
        "mid": "2e442b912ed08650cf5bb1b71ffebbfc0253638f51e81b94884b14753cb3a241",
        "last": "857bd8afab5688dbcbe72fd1c6dd613cc820c6250e9e4e598f14a499dd7dd40c",
    },
    "fig8": {
        "count": 15,
        "ordered_digest": "31278a68670e1674a9a21c257524934e63111edd00d8e8d011386a7a79eb2cda",
        "first": "10b0fe97bf0dcfc6a137be8c4919da3a353dbda3301821c3cfe77ab424140845",
        "mid": "462e166b07935f8802b39f6ed0b120f82b0c7f305fdee8c09608a454fddf11a0",
        "last": "85eec4937921723050f19d5449ec77da16efaeb7f5ea79e53f4530eece1c2be5",
    },
}


@pytest.mark.parametrize("exp_id", ["fig4", "fig8"])
def test_observed_runs_are_the_simulated_points(exp_id):
    """The predictors' cost models come straight from the config: no
    machine is built only to read them, so an observed sweep captures
    exactly one run per simulated point (fig8 once reported 20 for 15)."""
    obs.enable(spans=False)
    try:
        run_experiment(exp_id, fast=True, seed=0)
        runs = len(obs.runs())
    finally:
        obs.disable()
    assert runs == PINNED_KEYS[exp_id]["count"]


def _payload(exp_id: str, jobs: int) -> dict:
    doc = run_experiment(exp_id, fast=True, seed=0, jobs=jobs).to_json_dict()
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("exp_id", ["fig4", "fig8"])
def test_fast_payload_matches_recorded_at_any_job_count(exp_id):
    with open(DATA / f"{exp_id}_fast.json") as fh:
        recorded = json.load(fh)
    for jobs in (1, 2):
        assert _payload(exp_id, jobs) == recorded, f"jobs={jobs}"


@pytest.mark.parametrize("exp_id", ["fig4", "fig8"])
def test_point_keys_match_a_store_warmed_before_reuse(exp_id, monkeypatch):
    captured = []

    def fake_map(fn, tasks, jobs=1):
        captured.append((fn, list(tasks)))
        return [1.0e6 + i for i in range(len(tasks))]

    monkeypatch.setattr(sweeps, "parallel_map", fake_map)
    monkeypatch.setattr(fig8_topology, "parallel_map", fake_map)
    run_experiment(exp_id, fast=True, seed=0)
    ((fn, tasks),) = captured
    keys = [point_key(_fn_name(fn), task, None) for task in tasks]
    pinned = PINNED_KEYS[exp_id]
    assert len(keys) == pinned["count"]
    assert (keys[0], keys[len(keys) // 2], keys[-1]) == (
        pinned["first"],
        pinned["mid"],
        pinned["last"],
    )
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == pinned["ordered_digest"]


def _square(x):
    return x * x


def test_checkpoint_resume_keys_on_tasks_not_positions(tmp_path):
    ckpt = str(tmp_path / "ck")
    try:
        executor.set_policy(ExecutionPolicy(max_retries=0, checkpoint_dir=ckpt))
        assert parallel_map(_square, [1, 2, 3, 4], jobs=1) == [1, 4, 9, 16]
        (journal,) = os.listdir(ckpt)
        path = os.path.join(ckpt, journal)
        assert len(open(path).read().splitlines()) == 4

        executor.set_policy(ExecutionPolicy(max_retries=0, checkpoint_dir=ckpt))
        assert parallel_map(_square, [4, 3, 2, 1], jobs=1) == [16, 9, 4, 1]
        # Every point replayed from the journal: nothing new appended.
        assert len(open(path).read().splitlines()) == 4
    finally:
        executor.clear_policy()
