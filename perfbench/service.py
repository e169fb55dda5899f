"""``service-mixed``: the sweep service under one closed-loop client.

The server is ``qsm-repro serve --max-workers 2`` with its journal on.
The main client sends a request, waits for ``done`` and sends the next
one at once (a closed loop, no think time), like a CLI ``submit`` user
who waits for the reply.  A second client, the partner, sends only the
shared requests, together with the main client, so at most one runner
simulates at a time.  The benchmark process, the server and its runners
all run on one CPU (:func:`run`).  With two closed-loop clients on both
CPUs, throughput moved by up to 1.6x between runs of the same seed while
a one-process set-up time moved by 12%: the figures followed the host,
not the program.

The seeded request mix, per block of ``SHARED_EVERY`` = 8 main-client
slots (an assumed mix: no recorded traffic exists to derive it from;
``NOTES.md`` gives the reason for each share):

* ``hit`` (6 slots): a resubmit of a sweep warmed before timing (store hits);
* ``fresh`` (1 slot): a ``fig1 --fast`` sweep at a seed no one used
  before, which simulates and writes to the store and the journal;
* ``shared`` (1 slot, the first): both clients meet at a barrier and send
  the same fresh request, so single-flight coalescing does real work.
  The barrier is also where the window starts, ends, and (traced run)
  switches from untraced to traced.  The partner waits there between
  shared slots; the main client never waits long, as both shared
  requests end together.

Checks: every payload is byte-identical to an in-process run of the same
request, every ``hit`` is served with zero misses, and no request is
refused.  A refused or failed request counts as a failed operation and
as missing every latency target, also when a client retry (``retry``
event) then got it served.

In the traced run the server is started through ``serve_traced.py``,
which records the in-process layer spans inside each forked runner once
the flag file exists; their totals nest inside the client-observed
``accepted -> result`` interval (``service.run``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostinfo
import layers
import workloads

#: Warmed sweeps that ``hit`` requests resubmit.
WARM_EXPERIMENTS = ("fig1", "fig1", "fig2", "fig8")
FRESH_EXPERIMENT = "fig1"
SHARED_EVERY = 8
HITS_PER_BLOCK = 6
CLIENTS = 2
MAX_SLOTS = 4096
MAX_WORKERS = 2


def generate_inputs(rng) -> Dict[str, Any]:
    """Warm set and both clients' request schedules, from the seed.

    Every block of ``SHARED_EVERY`` main-client slots opens with the
    shared request and holds exactly ``HITS_PER_BLOCK`` hits (each warmed
    sweep in turn) in a seeded order, so the mix is the same in every run
    and the median request is a hit.  The partner's schedule is the
    shared slots alone."""
    warm = [(exp, rng.randrange(1, 1 << 20)) for exp in WARM_EXPERIMENTS]
    fresh_base = rng.randrange(1 << 21, 1 << 30)
    slots = []
    hits = 0
    for block in range(0, MAX_SLOTS, SHARED_EVERY):
        slots.append(("shared", FRESH_EXPERIMENT, fresh_base + block))
        kinds = ["hit"] * HITS_PER_BLOCK + ["fresh"] * (SHARED_EVERY - 1 - HITS_PER_BLOCK)
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds, start=block + 1):
            if kind == "hit":
                slots.append(("hit",) + warm[hits % len(warm)])
                hits += 1
            else:
                slots.append(("fresh", FRESH_EXPERIMENT, fresh_base + MAX_SLOTS + i))
    partner = [slot for slot in slots if slot[0] == "shared"]
    return {"warm": warm, "schedules": [slots, partner]}


@dataclass
class Record:
    kind: str
    experiment: str
    seed: int
    traced: bool
    send: float
    accepted: Optional[float] = None
    first_point: Optional[float] = None
    result: Optional[float] = None
    done: Optional[float] = None
    points: int = 0
    retries: int = 0
    error: Optional[str] = None
    cache: Dict[str, int] = field(default_factory=dict)
    payload: Optional[bytes] = None


def _request(port: int, kind: str, exp: str, seed: int, traced: bool) -> Record:
    from repro.service import client
    from repro.service.protocol import SweepRequest

    rec = Record(kind=kind, experiment=exp, seed=seed, traced=traced, send=time.perf_counter())
    try:
        for event in client.submit(
            SweepRequest(experiment=exp, fast=True, seed=seed), port=port, retries=3
        ):
            now = time.perf_counter()
            name = event.get("event")
            if name == "accepted":
                rec.accepted = now
            elif name == "point":
                rec.points += 1
                if rec.first_point is None:
                    rec.first_point = now
            elif name == "result":
                rec.result = now
                rec.cache = event.get("cache", {})
                rec.payload = json.dumps(event["payload"], sort_keys=True).encode()
            elif name == "retry":
                rec.retries += 1
                rec.points = 0
                rec.first_point = None
            elif name == "done":
                rec.done = now
    except Exception as exc:  # refused, reset, protocol error: one failed request
        rec.error = f"{type(exc).__name__}: {exc}"
    if rec.error is None and rec.done is None:
        rec.error = "stream ended without done"
    return rec


class _Server:
    """One ``serve`` process on a free port."""

    def __init__(self, root: Path, cache: Path, trace_dir: Optional[Path]) -> None:
        serve = ["serve", "--cache", str(cache), "--port", "0", "--max-workers", str(MAX_WORKERS)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.experiments.cli", *serve]
        else:
            argv = [sys.executable, str(root / "perfbench" / "serve_traced.py"), str(trace_dir), *serve]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=hostinfo.program_env(root),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.port = int(json.loads(line)["serving"].rsplit(":", 1)[1])
            self._wait_ready()
        except Exception:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> None:
        from repro.service import client

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if client.ready(port=self.port).get("ready"):
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered ready")

    def stop(self) -> None:
        from repro.service import client

        try:
            if self.proc.poll() is None:
                client.shutdown(port=self.port)
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()


class _Loop:
    """Shared state of the closed loop; changed only in the barrier action."""

    def __init__(self, seconds: float, trace: bool, flag: Optional[Path]) -> None:
        self.seconds = seconds
        self.trace = trace
        self.flag = flag
        self.start: Optional[float] = None
        self.switch: Optional[float] = None
        self.end: Optional[float] = None
        self.traced = False
        self.stop = False
        self.barrier = threading.Barrier(CLIENTS, action=self._at_barrier)

    def _at_barrier(self) -> None:
        now = time.perf_counter()
        if self.start is None:
            self.start = now
            return
        span = self.seconds / 2 if self.trace else self.seconds
        if self.trace and not self.traced and now - self.start >= span:
            self.flag.touch()
            self.traced = True
            self.switch = now
        elif now - (self.switch or self.start) >= span:
            self.stop = True
            self.end = now


def _client(port: int, schedule, loop: _Loop, out: List[Record], problems: List[str]) -> None:
    for kind, exp, seed in schedule:
        if kind == "shared":
            try:
                loop.barrier.wait(timeout=60)
            except threading.BrokenBarrierError:
                problems.append("client barrier broken")
                return
            if loop.stop:
                return
        out.append(_request(port, kind, exp, seed, loop.traced))
    problems.append("request schedule exhausted before the window ended")
    loop.barrier.abort()


def run(ctx: workloads.Context) -> workloads.Outcome:
    """Run the workload with this process, the server and its runners
    on one CPU (children inherit the affinity), so that a request's
    hand-offs between processes never wait for another CPU to wake."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _run(ctx)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(ctx: workloads.Context) -> workloads.Outcome:
    from repro.service import client

    outcome = workloads.Outcome()
    cache = ctx.workdir / "cache"
    trace_dir = ctx.workdir / "runner-traces" if ctx.trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    if ctx.trace:
        workloads._setup(ctx, outcome)

    probes = []
    server = None
    for i in range(workloads.SETUP_PROBES):
        server = _Server(ctx.root, cache, trace_dir)
        probes.append(server.setup_s)
        if i < workloads.SETUP_PROBES - 1:
            server.stop()
    records: List[Record] = []
    problems: List[str] = []
    try:
        for exp, seed in ctx.inputs["warm"]:
            records.append(_request(server.port, "warm", exp, seed, False))
        before = client.stats(port=server.port)
        loop = _Loop(ctx.seconds, ctx.trace, trace_dir / "on" if trace_dir else None)
        per_client: List[List[Record]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=_client,
                args=(server.port, ctx.inputs["schedules"][c], loop, per_client[c], problems),
            )
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if loop.end is None:  # a client gave up; its problem is recorded
            loop.end = time.perf_counter()
            loop.switch = loop.switch or loop.start
        after = client.stats(port=server.port)
        if ctx.trace:
            _wait_runner_traces(trace_dir, sum(r.traced for rs in per_client for r in rs))
    finally:
        server.stop()
    outcome.metrics["peak_rss_mb"] = hostinfo.peak_rss_mb(children=True)
    for p in problems:
        outcome.fail(p)

    window = [r for rs in per_client for r in rs]
    records.extend(window)
    outcome.attempted += len(records)
    phases = _check_payloads(records, outcome)

    untraced = [r for r in window if not r.traced]
    span_s = max((loop.switch if ctx.trace else loop.end) - loop.start, 1e-9)
    bound = span_s  # a failed request misses every latency target

    def latency(r: Record, until: Optional[float]) -> float:
        return until - r.send if _served(r) and until is not None else bound

    hits = [latency(r, r.done) for r in untraced if r.kind == "hit"]
    misses = [latency(r, r.done) for r in untraced if r.kind != "hit"]
    every = [latency(r, r.done) for r in untraced]
    firsts = [latency(r, r.first_point) for r in untraced]
    ok = [r for r in untraced if _served(r)]
    outcome.metrics["setup_s"] = hostinfo.median(probes)
    outcome.extra["setup_probes"] = probes
    outcome.metrics["op_p50_s"] = hostinfo.median(every)
    outcome.metrics["points_per_s"] = sum(r.points for r in ok) / span_s
    outcome.metrics["phases_per_s"] = sum(phases.get((r.experiment, r.seed), 0) for r in ok) / span_s

    service_e2e = {
        "hit_p50_s": hostinfo.median(hits),
        "hit_p90_s": hostinfo.percentile(hits, 0.9),
        "miss_p50_s": hostinfo.median(misses),
        "miss_p90_s": hostinfo.percentile(misses, 0.9),
        "first_point_p50_s": hostinfo.median(firsts),
        "requests_per_s": len(untraced) / span_s,
    }
    outcome.report.append(
        f"service: {len(untraced)} request(s) in {span_s:.2f} s "
        f"({len(hits)} hit, {len(misses)} miss incl. shared); "
        + ", ".join(
            f"{k} {v:.4g}" + (f" (n={len(hits if k.startswith('hit') else misses)})" if "p90" in k else "")
            for k, v in service_e2e.items()
        )
    )
    for name in ("hit_p90_s", "miss_p90_s"):
        if service_e2e[name] == 0.0:
            outcome.report.append(f"{name}: fewer than 10 samples beyond p90, not reported (0)")
    delta = {k: after["counters"].get(k, 0) - before["counters"].get(k, 0) for k in ("hits", "misses", "coalesced")}
    outcome.report.append(f"server store counters over the window: {delta}")
    outcome.extra["store_delta"] = delta
    if not ctx.trace:
        return outcome

    outcome.layers.update(service_e2e)
    traced = [r for r in window if r.traced and _served(r)]
    n = max(len(traced), 1)
    tracer = layers.Tracer(spans=False)
    for path in sorted(trace_dir.glob("runner-*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        tracer.merge(doc["self_s"], doc["counts"])
    admit = [r.accepted - r.send for r in traced]
    run_s = [r.result - r.accepted for r in traced]
    stream = [r.done - r.result for r in traced]
    inner = sum(tracer.self_seconds().values())
    tracer.self_ns["service.admit"] = int(sum(admit) * 1e9)
    tracer.self_ns["service.run"] = int((sum(run_s) - inner) * 1e9)
    tracer.self_ns["service.stream"] = int(sum(stream) * 1e9)
    outcome.layers.update(layers.layer_metrics(tracer, n))
    outcome.layers["service.admit_p50_s"] = hostinfo.median(admit)
    outcome.layers["service.run_p50_s"] = hostinfo.median(run_s)
    outcome.layers["service.stream_p50_s"] = hostinfo.median(stream)
    outcome.layers["service.rejected"] = float(sum(not _served(r) for r in window))
    outcome.layers["service.retries"] = float(sum(r.retries for r in window))
    looked_up = sum(delta.values())
    window_n = max(len(window), 1)
    outcome.layers["store.hits"] = delta["hits"] / window_n
    outcome.layers["store.misses"] = delta["misses"] / window_n
    outcome.layers["store.coalesced"] = delta["coalesced"] / window_n
    outcome.layers["store.hit_ratio"] = delta["hits"] / looked_up if looked_up else 0.0
    workloads._layers_common(outcome)
    # The main client's traced half plus the partner's traced requests is
    # the wall to account for; the partner is idle between shared slots.
    traced_s = max(loop.end - loop.switch, 1e-9)
    main = per_client[0]
    partner_s = sum(r.done - r.send for r in per_client[1] if r.traced and _served(r))
    per_untraced = span_s / max(sum(not r.traced for r in main), 1)
    per_traced = traced_s / max(sum(r.traced for r in main), 1)
    workloads._reconcile(outcome, tracer, traced_s + partner_s, n, per_untraced, per_traced)
    tracer.write(ctx.workdir / "trace.json", {"workload": ctx.workload, "seed": ctx.seed})
    return outcome


def _wait_runner_traces(trace_dir: Path, expected: int, timeout: float = 10.0) -> None:
    """Runners write their totals just after reporting; wait for them."""
    deadline = time.monotonic() + timeout
    while len(list(trace_dir.glob("runner-*.json"))) < expected and time.monotonic() < deadline:
        time.sleep(0.05)


def _served(rec: Record) -> bool:
    """Answered on the first send: a request the server refused (and the
    client retried) is a failed operation even if a retry succeeded."""
    return rec.error is None and rec.retries == 0


def _check_payloads(records: List[Record], outcome: workloads.Outcome) -> Dict[tuple, int]:
    """Compare every payload with an in-process run of the same request;
    returns simulated phases per (experiment, seed)."""
    from repro.experiments import registry

    by_key: Dict[tuple, List[Record]] = {}
    for rec in records:
        if rec.error is not None:
            outcome.fail(f"{rec.kind} {rec.experiment} seed {rec.seed}: {rec.error}")
            continue
        if rec.retries:
            outcome.fail(f"{rec.kind} {rec.experiment} seed {rec.seed}: refused {rec.retries} time(s)")
        if rec.kind == "hit" and (rec.cache.get("misses") or rec.cache.get("coalesced")):
            outcome.fail(f"warmed resubmit {rec.experiment} seed {rec.seed} simulated: {rec.cache}")
        by_key.setdefault((rec.experiment, rec.seed), []).append(rec)
    phases: Dict[tuple, int] = {}
    counter = layers.Tracer(spans=False)
    with layers.instrument(counter):
        for key, recs in sorted(by_key.items()):
            before = counter.counts["qsmlib.phases"]
            reference = workloads.payload_bytes(registry.run_experiment(key[0], fast=True, seed=key[1]))
            phases[key] = counter.counts["qsmlib.phases"] - before
            for rec in recs:
                if rec.payload != reference:
                    outcome.fail(f"{rec.kind} {key}: service payload differs from the in-process run")
    return phases
