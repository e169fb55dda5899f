"""Layer spans and counters, recorded from outside the program.

:func:`instrument` replaces the public entry point of each layer of the
``repro`` package with a wrapper for the duration of a ``with`` block,
and puts the originals back afterwards.  Nothing inside ``src/`` knows
it is being measured.

Two modes:

* counting only (``spans=False``): three wrappers that count sweep
  points and simulated phases, so the untraced run can report
  ``points_per_s`` and ``phases_per_s``.  They cost one counter update
  per simulated run.
* tracing (``spans=True``): every layer boundary records a span
  ``(id, parent, op, layer, start_ns, end_ns)``.  Spans stay in memory;
  :meth:`Tracer.write` saves them when the run ends.  A layer's self
  time is its span minus the time its direct child spans cover, so the
  self times of all layers plus the unattributed remainder add up to
  the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name -> per-layer time metric it feeds (self seconds).
LAYER_TIME_METRICS = {
    "experiments": "experiments.self_s",
    "store.key": "store.key_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "predict": "predict.s",
    "algorithms": "algorithms.self_s",
    "qsmlib.runtime": "qsmlib.runtime.s",
    "qsmlib.plan": "qsmlib.plan.s",
    "qsmlib.costmodel": "qsmlib.costmodel.s",
    "qsmlib.epoch": "qsmlib.epoch.s",
    "sim": "sim.run_s",
    "membank": "membank.s",
    "check": "check.s",
    "obs": "obs.export_s",
}


class Tracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self, spans: bool = True) -> None:
        self.record_spans = spans
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: List[list] = []
        self._next_id = 0

    def begin_op(self) -> int:
        """Start a new top-level operation; its spans share this id."""
        self.op_id += 1
        return self.op_id

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        start = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else None
        # [id, start, child_ns]
        frame = [self._next_id, start, 0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.self_ns[layer] += duration - frame[2]
            self.spans.append(
                (frame[0], parent[0] if parent else -1, self.op_id, layer, start, end)
            )

    def self_seconds(self) -> Dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in self.self_ns.items()}

    def merge(self, self_s: Dict[str, float], counts: Dict[str, int]) -> None:
        """Fold in totals recorded by another process (a service runner)."""
        for layer, seconds in self_s.items():
            self.self_ns[layer] += int(round(seconds * 1e9))
        self.counts.update(counts)

    def write(self, path, extra: Optional[dict] = None) -> None:
        doc = {
            "span_fields": ["id", "parent", "op", "layer", "start_ns", "end_ns"],
            "spans": self.spans,
            "self_s": self.self_seconds(),
            "counts": dict(self.counts),
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _replace_everywhere(owner, name: str, wrapper, undo: list) -> None:
    """Replace ``owner.name`` and every ``repro`` module global bound to
    the same function (``from x import f`` copies the binding)."""
    original = getattr(owner, name)
    undo.append((owner, name, original))
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None or module is owner:
            continue
        if getattr(module, name, None) is original:
            undo.append((module, name, original))
            setattr(module, name, wrapper)


def _span(tracer: Tracer, layer: str, original: Callable, after=None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, original, args, kwargs)
        if after is not None:
            after(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _count(tracer: Tracer, original: Callable, after) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        after(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _after_machine_run(counts, args, kwargs, result) -> None:
    counts["qsmlib.phases"] += len(result.phases)
    counts["sim.events"] += result.sim_events


def _after_parallel_map(counts, args, kwargs, result) -> None:
    counts["experiments.points"] += len(result)


def _after_microbench(counts, args, kwargs, result) -> None:
    counts["experiments.points"] += 1


def _after_epoch_phase(counts, args, kwargs, result) -> None:
    counts["qsmlib.epoch.phases"] += 1


def _after_execute_phase(counts, args, kwargs, result) -> None:
    counts["qsmlib.runtime.phases"] += 1


def _after_predict(counts, args, kwargs, result) -> None:
    counts["predict.evaluations"] += len(result)


def _after_write_metrics(counts, args, kwargs, result) -> None:
    counts["obs.metrics"] += int(result)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the layer entry points for the duration of the block."""
    import repro.check.sanitizer as sanitizer
    import repro.experiments.executor as executor
    import repro.experiments.registry as registry
    import repro.membank.microbench as microbench
    import repro.obs as obs
    import repro.predict.engine as predict_engine
    import repro.qsmlib.costmodel as costmodel
    import repro.qsmlib.epoch as epoch
    import repro.qsmlib.plan as plan
    import repro.qsmlib.program as program
    import repro.qsmlib.runtime as runtime
    import repro.sim.engine as sim_engine
    import repro.store.cas as cas
    import repro.store.keys as keys

    undo: list = []

    def patch(owner, name: str, layer: str, after=None, counted: bool = False) -> None:
        original = getattr(owner, name)
        if tracer.record_spans:
            wrapper = _span(tracer, layer, original, after)
        elif counted:
            wrapper = _count(tracer, original, after)
        else:
            return
        _replace_everywhere(owner, name, wrapper, undo)

    # Counted in both modes: points and phases for the untraced metrics.
    patch(executor, "parallel_map", "experiments", _after_parallel_map, counted=True)
    patch(program.QSMMachine, "run", "algorithms", _after_machine_run, counted=True)
    patch(microbench, "run_microbenchmark", "membank", _after_microbench, counted=True)
    # Traced run only.
    patch(registry, "run_experiment", "experiments")
    patch(keys, "point_key", "store.key")
    patch(cas.ResultStore, "get_capture", "store.get")
    patch(cas.ResultStore, "put_capture", "store.put")
    patch(predict_engine, "predict_point", "predict", _after_predict)
    patch(runtime.SyncEngine, "execute_phase", "qsmlib.runtime", _after_execute_phase)
    patch(plan, "build_traffic", "qsmlib.plan")
    patch(costmodel, "build_epoch_tables", "qsmlib.costmodel")
    patch(epoch, "execute_epoch_phase", "qsmlib.epoch", _after_epoch_phase)
    patch(sim_engine.Simulator, "run", "sim")
    patch(sanitizer.PhaseSanitizer, "check_phase", "check")
    patch(sanitizer.PhaseSanitizer, "check_collectives", "check")
    patch(obs, "write_metrics", "obs", _after_write_metrics)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, per: float) -> Dict[str, float]:
    """Per-layer self seconds and counts, divided by *per* operations."""
    per = max(per, 1.0)
    self_s = tracer.self_seconds()
    out = {metric: self_s.get(layer, 0.0) / per for layer, metric in LAYER_TIME_METRICS.items()}
    counts = tracer.counts
    out["experiments.points"] = counts["experiments.points"] / per
    out["predict.evaluations"] = counts["predict.evaluations"] / per
    out["qsmlib.epoch.phases"] = counts["qsmlib.epoch.phases"] / per
    out["qsmlib.runtime.des_phases"] = (
        counts["qsmlib.runtime.phases"] - counts["qsmlib.epoch.phases"]
    ) / per
    out["sim.events"] = counts["sim.events"] / per
    out["obs.metrics"] = counts["obs.metrics"] / per
    return out
