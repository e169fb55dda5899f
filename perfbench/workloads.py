"""The four benchmark workloads.

Every workload is driven from this one process, at ``jobs=1``, and
receives only inputs generated from the benchmark seed
(:func:`generate_inputs`).  Each returns an :class:`Outcome`: the
end-to-end metrics (untraced), the per-layer metrics (traced run), the
operations attempted and failed, and human-readable report lines.

Correctness checks (a failed check counts as a failed operation):

* ``sweep-cold`` / ``sweep-des``: the first pass runs at the default
  seed and must match the per-point and payload digests pinned in
  ``digests.json``; the fig2/fig3 pins of the two workloads are equal, so the DES kernel and
  the epoch kernel must agree bit for bit.  The sanitizer must report
  no diagnostic.
* ``rerun-cached``: every replay is byte-identical to the cold pass that
  warmed the store, and runs no simulation (no store miss, no
  ``QSMMachine.run``).
* ``service-mixed``: see :mod:`service`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import hostinfo
import layers

DEFAULT_SEED = 0

#: Experiments each in-process workload runs per pass, at ``--fast``.
EXPERIMENTS = {
    # Epoch kernel, algorithm host code, planning/cost tables, predictors.
    "sweep-cold": ("fig2", "fig3", "fig4", "fig6", "fig8"),
    # fig1-fig3 armed with the sanitizer plus metrics collection (which
    # moves them onto the DES fast path) and the always-DES fig7 grid.
    "sweep-des": ("fig1", "fig2", "fig3", "fig7"),
    # Everything ``all --fast`` routes through the result store.
    "rerun-cached": ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "table4"),
}

#: Fresh interpreters started per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Upper bound on passes per run; seeds are drawn for all of them.
MAX_CYCLES = 256


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    diagnostics: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Context:
    root: Path
    workdir: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    inputs: Dict[str, Any]


def generate_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Everything the program receives, derived from the seed alone."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("sweep-cold", "sweep-des"):
        # The first pass runs at the default seed, whose outputs are pinned.
        return {
            "experiments": list(EXPERIMENTS[workload]),
            "cycle_seeds": [DEFAULT_SEED] + [rng.randrange(1, 1 << 20) for _ in range(MAX_CYCLES)],
        }
    if workload == "rerun-cached":
        return {"experiments": list(EXPERIMENTS[workload]), "seed": rng.randrange(1, 1 << 20)}
    if workload == "service-mixed":
        import service

        return service.generate_inputs(rng)
    raise KeyError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
#: Host-work diagnostics that legitimately differ between kernels.
_NOT_SIMULATED = {"sim_events"}


def _feed(h, obj: Any) -> None:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in _NOT_SIMULATED:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (bool, int, np.integer, str, type(None))):
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"map{len(obj)}".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        raise TypeError(f"no canonical digest for {type(obj).__name__}")


def digest(obj: Any) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def payload_bytes(result) -> bytes:
    return json.dumps(result.to_json_dict(), sort_keys=True).encode()


@contextlib.contextmanager
def capture_points(sink: List[Any]):
    """Collect every sweep-point result (``parallel_map`` items and
    fig7 microbenchmark runs) while the block runs."""
    import repro.experiments.executor as executor
    import repro.membank.microbench as microbench

    undo: list = []
    pmap = executor.parallel_map
    micro = microbench.run_microbenchmark

    def parallel_map(fn, tasks, jobs=1):
        out = pmap(fn, tasks, jobs=jobs)
        sink.extend(out)
        return out

    def run_microbenchmark(*args, **kwargs):
        out = micro(*args, **kwargs)
        sink.append(out)
        return out

    layers._replace_everywhere(executor, "parallel_map", parallel_map, undo)
    layers._replace_everywhere(microbench, "run_microbenchmark", run_microbenchmark, undo)
    try:
        yield sink
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def pinned_digests(root: Path) -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(root / "perfbench" / "digests.json") as fh:
        return json.load(fh)


def kernel_mismatches(pins: Dict[str, Dict[str, Dict[str, str]]]) -> List[str]:
    """Experiments both kernels run (fig2, fig3) whose ``sweep-cold`` and
    ``sweep-des`` pins differ: the kernels must agree bit for bit."""
    cold, des = pins.get("sweep-cold", {}), pins.get("sweep-des", {})
    return sorted(e for e in set(EXPERIMENTS["sweep-cold"]) & set(EXPERIMENTS["sweep-des"])
                  if cold.get(e) is None or cold.get(e) != des.get(e))


# ----------------------------------------------------------------------
# In-process sweeps
# ----------------------------------------------------------------------
def _run_op(exp: str, seed: int, des: bool, workdir: Path, outcome: Outcome):
    """One user operation: ``run <exp> --fast`` (plus, on ``sweep-des``,
    ``--sanitize=error --metrics FILE``).  Returns the result or None."""
    from repro import check, obs
    from repro.experiments import registry

    outcome.attempted += 1
    try:
        if des:
            check.arm("error")
            obs.enable(spans=False)
        try:
            result = registry.run_experiment(exp, fast=True, seed=seed)
            if des:
                diagnostics = len(check.diagnostics())
                if diagnostics:
                    outcome.diagnostics += diagnostics
                    outcome.fail(f"{exp} seed {seed}: {diagnostics} sanitizer diagnostic(s)")
                    return None
                obs.write_metrics(str(workdir / "metrics.jsonl"))
        finally:
            if des:
                obs.disable()
                check.disarm()
    except Exception:
        outcome.fail(f"{exp} seed {seed} raised:\n{traceback.format_exc()}")
        return None
    return result


def _digests(points: List[Any], result) -> Dict[str, str]:
    return {"points": digest(points), "payload": hashlib.sha256(payload_bytes(result)).hexdigest()}


def default_seed_digests(exps, des: bool, workdir: Path, outcome: Outcome) -> Dict[str, Dict[str, str]]:
    """Per-experiment digests of a pass at the default seed."""
    out = {}
    for exp in exps:
        points: List[Any] = []
        with capture_points(points):
            result = _run_op(exp, DEFAULT_SEED, des, workdir, outcome)
        if result is not None:
            out[exp] = _digests(points, result)
    return out


def _cycle(ctx: Context, tracer: layers.Tracer, exps, seed: int, des: bool, outcome: Outcome,
           pinned: Optional[Dict[str, Dict[str, str]]] = None):
    """One pass over the workload's grid; returns (seconds, points, phases).
    With *pinned*, each experiment's outputs are digested (outside the
    timed calls) and compared with the pins."""
    points0 = tracer.counts["experiments.points"]
    phases0 = tracer.counts["qsmlib.phases"]
    elapsed = 0.0
    for exp in exps:
        tracer.begin_op()
        points: List[Any] = []
        start = time.perf_counter()
        with capture_points(points) if pinned is not None else contextlib.nullcontext():
            result = _run_op(exp, seed, des, ctx.workdir, outcome)
        elapsed += time.perf_counter() - start
        if pinned is not None and result is not None and _digests(points, result) != pinned.get(exp):
            outcome.fail(f"{exp}: default-seed outputs differ from the pinned digests")
    return (
        elapsed,
        tracer.counts["experiments.points"] - points0,
        tracer.counts["qsmlib.phases"] - phases0,
    )


def _window(seconds: float, min_cycles: int, step) -> List[tuple]:
    """Run whole passes until *seconds* have elapsed (at least *min_cycles*)."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_cycles or time.perf_counter() - start < seconds:
        samples.append(step(len(samples)))
    return samples


def _rates(samples, outcome: Outcome) -> None:
    """Median pass time; throughputs as total work over total time."""
    times = [s[0] for s in samples]
    total = sum(times)
    outcome.metrics["op_p50_s"] = hostinfo.median(times)
    outcome.metrics["points_per_s"] = sum(s[1] for s in samples) / total
    outcome.metrics["phases_per_s"] = sum(s[2] for s in samples) / total
    outcome.extra["pass_s"] = times


def _reconcile(outcome: Outcome, tracer: layers.Tracer, wall: float, ops: int,
               untraced: float, traced: float) -> None:
    """Per-op layer metrics plus the remainder no layer claims."""
    outcome.layers.update(layers.layer_metrics(tracer, ops))
    attributed = sum(tracer.self_seconds().values())
    outcome.layers["trace.wall_s"] = wall / max(ops, 1)
    outcome.layers["trace.unattributed_s"] = (wall - attributed) / max(ops, 1)
    outcome.layers["trace.unattributed_share"] = (wall - attributed) / wall if wall else 0.0
    outcome.layers["trace.overhead"] = traced / untraced - 1.0 if untraced else 0.0
    outcome.report.append(
        f"trace: wall {wall:.3f} s over {ops} op(s) = layers {attributed:.3f} s "
        f"+ unattributed {wall - attributed:.3f} s "
        f"({outcome.layers['trace.unattributed_share']:.1%}); "
        f"tracing overhead {outcome.layers['trace.overhead']:+.1%}"
    )


def _setup(ctx: Context, outcome: Outcome, store_dir: Optional[Path] = None) -> None:
    if ctx.trace:
        total, modules, top = hostinfo.import_profile(ctx.root)
        outcome.layers["startup.import_s"] = total
        outcome.layers["startup.modules"] = float(modules)
        outcome.extra["import_top"] = top
        outcome.report.append(
            f"startup: import {total:.3f} s, {modules} modules; top cumulative: "
            + ", ".join(f"{name} {sec:.3f}s" for name, sec in top)
        )
    else:
        probes = [hostinfo.setup_probe(ctx.root, store_dir) for _ in range(SETUP_PROBES)]
        outcome.metrics["setup_s"] = hostinfo.median(probes)
        outcome.extra["setup_probes"] = probes


def sweep(ctx: Context, des: bool) -> Outcome:
    """``sweep-cold`` (epoch kernel) or ``sweep-des`` (DES kernel)."""
    outcome = Outcome()
    exps = ctx.inputs["experiments"]
    seeds = ctx.inputs["cycle_seeds"]
    _setup(ctx, outcome)

    pins = pinned_digests(ctx.root)
    pinned = pins[ctx.workload]
    for exp in kernel_mismatches(pins):
        outcome.fail(f"{exp}: epoch-kernel and DES-kernel pins differ in digests.json")

    def step(tracer: layers.Tracer, i: int):
        return _cycle(ctx, tracer, exps, seeds[i], des, outcome, pinned if i == 0 else None)

    counter = layers.Tracer(spans=False)
    with layers.instrument(counter):
        run = _window(
            ctx.seconds / 2 if ctx.trace else ctx.seconds, 1 if ctx.trace else 2,
            lambda i: step(counter, i),
        )
    if not ctx.trace:
        _rates(run, outcome)
        outcome.metrics["peak_rss_mb"] = hostinfo.peak_rss_mb()
        return outcome

    tracer = layers.Tracer(spans=True)
    offset = len(run)
    with layers.instrument(tracer):
        traced = _window(ctx.seconds / 2, 1, lambda i: step(tracer, offset + i))
    _layers_common(outcome)
    _reconcile(
        outcome, tracer, sum(s[0] for s in traced), len(traced),
        hostinfo.median([s[0] for s in run]), hostinfo.median([s[0] for s in traced]),
    )
    tracer.write(ctx.workdir / "trace.json", {"workload": ctx.workload, "seed": ctx.seed})
    return outcome


def _layers_common(outcome: Outcome) -> None:
    """Per-layer metrics every workload reports; service ones read 0
    where the service does not run."""
    for name in SERVICE_LAYER_METRICS:
        outcome.layers.setdefault(name, 0.0)
    for name in ("store.hits", "store.misses", "store.coalesced", "store.hit_ratio"):
        outcome.layers.setdefault(name, 0.0)
    outcome.layers["check.diagnostics"] = float(outcome.diagnostics)


SERVICE_LAYER_METRICS = (
    "service.admit_p50_s", "service.run_p50_s", "service.stream_p50_s",
    "service.rejected", "service.retries",
    "hit_p50_s", "hit_p90_s", "miss_p50_s", "miss_p90_s",
    "first_point_p50_s", "requests_per_s",
)


# ----------------------------------------------------------------------
# Cached re-run
# ----------------------------------------------------------------------
def rerun_cached(ctx: Context) -> Outcome:
    from repro import store

    outcome = Outcome()
    exps = ctx.inputs["experiments"]
    seed = ctx.inputs["seed"]
    store_dir = ctx.workdir / "store"
    store.set_store(str(store_dir))
    try:
        counter = layers.Tracer(spans=False)
        with layers.instrument(counter):
            # Warm the store with one cold pass (preparation, not timed).
            cold: Dict[str, bytes] = {}
            for exp in exps:
                result = _run_op(exp, seed, False, ctx.workdir, outcome)
                if result is not None:
                    cold[exp] = payload_bytes(result)
            warm_phases = counter.counts["qsmlib.phases"]
            _setup(ctx, outcome, store_dir)

            def replay(tracer: layers.Tracer):
                store.reset_counters()
                phases0 = tracer.counts["qsmlib.phases"]
                points0 = tracer.counts["experiments.points"]
                start = time.perf_counter()
                payloads = {}
                for exp in exps:
                    tracer.begin_op()
                    result = _run_op(exp, seed, False, ctx.workdir, outcome)
                    if result is not None:
                        payloads[exp] = payload_bytes(result)
                elapsed = time.perf_counter() - start
                counts = store.counters()
                points = tracer.counts["experiments.points"] - points0
                for exp in exps:
                    if exp in payloads and payloads[exp] != cold.get(exp):
                        outcome.fail(f"{exp}: replay differs from the cold pass")
                if counts["misses"] or counts["coalesced"] or tracer.counts["qsmlib.phases"] != phases0:
                    outcome.fail(f"replay simulated: store counters {counts}")
                if counts["hits"] != points:
                    outcome.fail(f"replay hits {counts['hits']} != points {points}")
                tracer.counts["store.hits"] += counts["hits"]
                tracer.counts["store.misses"] += counts["misses"]
                tracer.counts["store.coalesced"] += counts["coalesced"]
                return elapsed, points, warm_phases

            run = _window(ctx.seconds / 2 if ctx.trace else ctx.seconds, 2, lambda i: replay(counter))
        outcome.extra["cold_pass_phases"] = warm_phases
        if not ctx.trace:
            _rates(run, outcome)
            outcome.metrics["peak_rss_mb"] = hostinfo.peak_rss_mb()
            return outcome

        tracer = layers.Tracer(spans=True)
        with layers.instrument(tracer):
            traced = _window(ctx.seconds / 2, 2, lambda i: replay(tracer))
        _layers_common(outcome)
        _reconcile(
            outcome, tracer, sum(s[0] for s in traced), len(traced),
            hostinfo.median([s[0] for s in run]), hostinfo.median([s[0] for s in traced]),
        )
        c = tracer.counts
        n = len(traced)
        outcome.layers["store.hits"] = c["store.hits"] / n
        outcome.layers["store.misses"] = c["store.misses"] / n
        outcome.layers["store.coalesced"] = c["store.coalesced"] / n
        looked_up = c["store.hits"] + c["store.misses"] + c["store.coalesced"]
        outcome.layers["store.hit_ratio"] = c["store.hits"] / looked_up if looked_up else 0.0
        tracer.write(ctx.workdir / "trace.json", {"workload": ctx.workload, "seed": ctx.seed})
        return outcome
    finally:
        store.clear_store()
