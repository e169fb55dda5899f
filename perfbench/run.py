"""Repository benchmark: end-to-end and per-layer metrics of the QSM
reproduction (sweeps, cached re-runs and the sweep service).

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics (see ``perfbench/NOTES.md``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Each run also appends a record, with the host fingerprint, to
``.perfbench/history.jsonl``.

``--pin`` recomputes the default-seed digests in ``perfbench/digests.json``
(only after an intended change to the simulated output).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostinfo  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sweep-cold", "sweep-des", "rerun-cached", "service-mixed")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    ctx = workloads.Context(
        root=ROOT, workdir=workdir, workload=workload, seed=seed, seconds=seconds,
        trace=trace, inputs=workloads.generate_inputs(workload, seed),
    )
    if workload == "service-mixed":
        import service

        return service.run(ctx)
    if workload == "rerun-cached":
        return workloads.rerun_cached(ctx)
    return workloads.sweep(ctx, des=workload == "sweep-des")


def pin(workdir: Path) -> None:
    outcome = workloads.Outcome()
    pins = {
        w: workloads.default_seed_digests(
            workloads.EXPERIMENTS[w], w == "sweep-des", workdir, outcome
        )
        for w in ("sweep-cold", "sweep-des")
    }
    if outcome.failed:
        raise SystemExit("\n".join(outcome.problems))
    differ = workloads.kernel_mismatches(pins)
    if differ:
        raise SystemExit(f"not pinned: the epoch and DES kernels disagree on {', '.join(differ)}")
    with open(HERE / "digests.json", "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HERE / 'digests.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite perfbench/digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program source (src/repro) beside the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.pin:
            pin(workdir)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        started = time.time()
        outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace), workdir)
        if args.trace:
            trace_out = scratch / f"trace-{args.workload}-seed{args.seed}.json"
            if (workdir / "trace.json").exists():
                shutil.move(str(workdir / "trace.json"), trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(outcome.attempted, 1)
    fail_ratio = outcome.failed / attempted
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(outcome.layers if args.trace else outcome.metrics)
    values.setdefault("fail_ratio", fail_ratio)
    metrics = {}
    for m in names:
        if m["name"] not in values:
            outcome.fail(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}

    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} operation(s), {outcome.failed} failed, fail_ratio {fail_ratio:g}")
    for line in outcome.report:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")

    hostinfo.append_history(scratch / "history.jsonl", {
        "started": started,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "host": hostinfo.fingerprint(ROOT),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "extra": outcome.extra,
    })
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
