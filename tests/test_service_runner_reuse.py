"""Long-lived service runners: reuse without losing isolation.

Contracts (docs/SERVICE.md, "Runner lifecycle"):

* a worker slot forks its runner on its first request and sends it
  every later request; each request still equals its serial CLI run in
  payload, cache counter delta, fault tally and diagnostics;
* a runner that dies mid-request, or is killed at the hard deadline,
  costs that request a structured error and is replaced for the next;
* a runner never keeps a copy of a client connection or the listener,
  so a client reads EOF when the server closes its connection;
* after ``stop()`` no runner is alive and the port can be bound again;
* :func:`~repro.service.runner.reset_request_state` puts back every
  global a sweep mutates;
* a runner's heap keeps freed large arrays for reuse, whatever earlier
  requests allocated.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import check, faults, obs
from repro import store as result_store
from repro.check.diagnostics import Diagnostic
from repro.experiments import executor, sweeps
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.service import ServiceError, SweepRequest, client
from repro.service.protocol import encode_line
from repro.service.runner import reset_request_state

from tests.test_service_hardening import _collect, live_service

FAULTY = "drop=0.2,seed=11"
CACHE_FIELDS = ("hits", "misses", "coalesced", "inflight", "quarantined")


def _cli_run(cache_dir, payload, queue) -> None:
    """Child body: *payload* run the way ``qsm-repro run --cache DIR
    [--faults SPEC]`` runs it, in a fresh fork of the test process."""
    req = SweepRequest.from_payload(payload)
    result_store.set_store(cache_dir)
    if req.faults:
        faults.arm(req.faults)
    result = run_experiment(req.experiment, fast=req.fast, seed=req.seed, ns=req.ns)
    counters = result_store.counters()
    queue.put(
        {
            "payload": json.dumps(result.to_json_dict(), sort_keys=True),
            "cache": {name: counters[name] for name in CACHE_FIELDS},
            "faults": faults.drain_tally(),
            "diagnostics": [d.format() for d in check.drain_diagnostics()],
        }
    )


def _cli_baseline(cache_dir, req: SweepRequest) -> dict:
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=_cli_run, args=(str(cache_dir), req.to_payload(), queue))
    proc.start()
    out = queue.get(timeout=120.0)
    proc.join(timeout=30.0)
    assert not proc.is_alive()
    return out


def _as_cli(result: dict) -> dict:
    """A service ``result`` event in the shape of :func:`_cli_run`."""
    return {
        "payload": json.dumps(result["payload"], sort_keys=True),
        "cache": {name: result["cache"][name] for name in CACHE_FIELDS},
        "faults": result.get("faults", {}),
        "diagnostics": result.get("diagnostics", []),
    }


def _exit_run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Dies mid-request without reporting anything."""
    os._exit(3)


def _wedged_run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Sleeps outside the executor, where the request deadline cannot
    reach it: only the server's hard-deadline kill ends it."""
    time.sleep(120.0)
    return ExperimentResult("wedged", "wedged", "wedged", {})


def _echo_run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    return ExperimentResult("echo", "echo", "echo", {"seed": seed, "pid": os.getpid()})


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_dead(pid: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while _alive(pid):
        assert time.monotonic() < deadline, f"runner {pid} still alive"
        time.sleep(0.02)


class TestReuse:
    def test_one_runner_serves_faulted_plain_and_deadline_requests(self, tmp_path):
        requests = [
            SweepRequest(experiment="fig1", fast=True, seed=0, ns=[4096], faults=FAULTY),
            SweepRequest(experiment="fig1", fast=True, seed=0, ns=[4096]),
            SweepRequest(
                experiment="fig1", fast=True, seed=1, ns=[4096], deadline_seconds=60.0
            ),
        ]
        baselines = [
            _cli_baseline(tmp_path / f"base-{i}", req) for i, req in enumerate(requests)
        ]
        assert baselines[0]["faults"], "the fault plan never fired"
        assert baselines[1]["payload"] != baselines[0]["payload"]

        with live_service(tmp_path / "shared", max_workers=1) as svc:
            served = [
                _collect(client.submit(req, port=svc.port))["result"] for req in requests
            ]
            runners = client.stats(port=svc.port)["runners"]

        for got, want in zip(served, baselines):
            assert _as_cli(got) == want
        assert runners["started"] == 1
        assert runners["reused"] == 2
        assert runners["replaced"] == {"died": 0, "deadline": 0, "failed": 0}


class TestReplacement:
    def test_runner_death_is_an_error_and_the_next_request_gets_a_fresh_runner(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENTS, "exits", _exit_run)
        monkeypatch.setitem(EXPERIMENTS, "echo", _echo_run)
        with live_service(tmp_path / "cas", max_workers=1, journal=False) as svc:
            first = _collect(client.submit(SweepRequest(experiment="echo"), port=svc.port))
            with pytest.raises(ServiceError) as err:
                list(client.submit(SweepRequest(experiment="exits"), port=svc.port))
            assert err.value.code == "internal"
            after = _collect(
                client.submit(SweepRequest(experiment="echo", seed=1), port=svc.port)
            )
            runners = client.stats(port=svc.port)["runners"]
        assert after["result"]["payload"]["data"]["seed"] == 1
        assert (
            after["result"]["payload"]["data"]["pid"]
            != first["result"]["payload"]["data"]["pid"]
        )
        assert runners["started"] == 2
        assert runners["replaced"]["died"] == 1

    def test_hard_deadline_kill_is_structured_and_replaces_the_runner(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENTS, "wedged", _wedged_run)
        monkeypatch.setitem(EXPERIMENTS, "echo", _echo_run)
        with live_service(tmp_path / "cas", max_workers=1, journal=False) as svc:
            svc.DEADLINE_GRACE_SECONDS = 0.2
            first = _collect(client.submit(SweepRequest(experiment="echo"), port=svc.port))
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as err:
                list(
                    client.submit(
                        SweepRequest(experiment="wedged", deadline_seconds=0.3),
                        port=svc.port,
                    )
                )
            assert err.value.code == "deadline"
            assert time.monotonic() - t0 < 60.0
            killed = first["result"]["payload"]["data"]["pid"]
            _wait_dead(killed)  # the error is sent before the reap
            after = _collect(
                client.submit(SweepRequest(experiment="echo", seed=2), port=svc.port)
            )
            runners = client.stats(port=svc.port)["runners"]
        assert after["result"]["payload"]["data"]["pid"] != killed
        assert runners["started"] == 2
        assert runners["replaced"]["deadline"] == 1


class TestTeardown:
    def test_closed_connection_reads_eof_while_a_runner_is_alive(
        self, tmp_path, monkeypatch
    ):
        """The runner is forked while this connection is open, so it
        inherits the server's side of it; it must not keep it open."""
        monkeypatch.setitem(EXPERIMENTS, "echo", _echo_run)
        with live_service(tmp_path / "cas", max_workers=1, journal=False) as svc:
            with socket.create_connection(("127.0.0.1", svc.port), timeout=10.0) as sock:
                sock.settimeout(10.0)
                sock.sendall(
                    encode_line(
                        {"cmd": "sweep", **SweepRequest(experiment="echo").to_payload()}
                    )
                )
                fh = sock.makefile("rb")
                events = []
                while True:
                    line = fh.readline()  # socket.timeout here = a held copy
                    if not line:
                        break
                    events.append(json.loads(line)["event"])
            assert events[-1] == "done"
            runners = client.stats(port=svc.port)["runners"]
            assert runners["live"] == 1 and all(_alive(p) for p in runners["pids"])

    def test_stop_leaves_no_runner_and_frees_the_port(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "echo", _echo_run)
        with live_service(tmp_path / "cas", max_workers=2, journal=False) as svc:
            _collect(client.submit(SweepRequest(experiment="echo"), port=svc.port))
            pids = client.stats(port=svc.port)["runners"]["pids"]
            port = svc.port
        assert pids and not any(_alive(p) for p in pids)
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.listen()


class TestResetRequestState:
    def test_reset_puts_back_every_global_a_sweep_mutates(
        self, tmp_path, monkeypatch, obs_state
    ):
        monkeypatch.setenv(faults.ENV_VAR, "")
        monkeypatch.setenv(result_store.ENV_VAR, "")
        monkeypatch.setenv(check.ENV_VAR, "")
        monkeypatch.setattr(sweeps, "_last_recording", (1, object()))
        check.arm("warn")
        try:
            # Dirty every global the way a finished or failed request can.
            result_store.set_store(tmp_path / "old")
            result_store.record("misses", 3)
            result_store.set_listener(lambda event: None)
            executor.set_policy(executor.ExecutionPolicy(max_retries=0))
            executor._FAILURES.append(
                executor.FailureRecord(fn="f", index=0, task_repr="()", error="boom")
            )
            faults.arm(FAULTY)
            faults.merge_tally({"fault.drops": 5})
            check.merge_diagnostics([Diagnostic("QS001", "error", "stale")])
            obs_state.new_run("stale")
            obs.metrics().counter("stale").inc()

            reset_request_state(str(tmp_path / "new"))

            assert result_store.active_store().root == (tmp_path / "new")
            assert os.environ[result_store.ENV_VAR] == str(tmp_path / "new")
            assert result_store.counters()["misses"] == 0
            assert result_store._LISTENER is None
            assert executor.policy() is None
            assert executor.failures() == []
            assert not faults.armed()
            assert faults.tally() == {}
            assert os.environ[faults.ENV_VAR] == "0"
            assert check.diagnostics() == []
            assert check.armed(), "the server's sanitizer mode is kept"
            assert obs.enabled() and obs.runs() == []
            assert obs.metrics().snapshot() == {}
            assert sweeps._last_recording is None
        finally:
            result_store.clear_store()
            executor.clear_policy()
            faults.disarm()
            check.disarm()


# Three 6 MiB arrays allocated and freed six times in a fresh
# interpreter; prints the page faults of each round.
_HEAP_CHURN = """
import resource, sys
import numpy as np
from repro.service import runner
if sys.argv[1] == "fixed":
    runner._fix_heap_thresholds()
rounds = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(6 << 17) for _ in range(3)]
    del arrays
    rounds.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*rounds)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="heap thresholds are glibc's"
)
def test_fixed_heap_thresholds_stop_refaulting_large_arrays():
    """glibc's adaptive thresholds trim freed large arrays off the heap,
    so later rounds map and fault (some of) them afresh; a runner's fixed
    thresholds keep them for reuse.  Fault counts are taken relative to
    the first round, which maps all three arrays in either mode (how
    many faults an array costs depends on transparent huge pages)."""
    src = Path(__file__).resolve().parents[1] / "src"

    def rounds(mode: str) -> list:
        out = subprocess.run(
            [sys.executable, "-c", _HEAP_CHURN, mode],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        return [int(n) for n in out.stdout.split()]

    adaptive = rounds("adaptive")
    assert min(adaptive[1:]) >= adaptive[0] // 3, adaptive
    fixed = rounds("fixed")
    assert max(fixed[1:]) < fixed[0] // 20, fixed
