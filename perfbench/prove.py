"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/prove.py

Runs ``run.py`` once per (workload, seed) for every workload in
``BENCHMARK.json`` and seeds 1-10, untraced, and prints for each
end-to-end metric the median and the distance between the first and
third quartiles as a share of the median, next to the metric's bound (a
spread above a third of the bound is flagged).  The summary is appended,
as a ``spread`` record, to the same ``.perfbench/history.jsonl`` that
every run appends to; ``NOTES.md`` quotes the accepted figures.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostinfo  # noqa: E402

SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in SEEDS:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if doc["failed"]:
                print(proc.stderr[-2000:], file=sys.stderr)
            failed += doc["failed"]
            ok &= doc["correct"]
            for name in values:
                values[name].append(doc["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={doc['correct']}", flush=True)
        summary[workload] = {"failed": failed, "metrics": {}}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {workload:14s} {m['name']:14s} median {med:10.4g} {m['unit']:5s} "
                  f"IQR/median {spread:6.3f} (bound {m['bound']}){flag}", flush=True)
            summary[workload]["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"],
            }
    hostinfo.append_history(ROOT / ".perfbench" / "history.jsonl", {
        "kind": "spread",
        "recorded": time.time(),
        "host": hostinfo.fingerprint(ROOT),
        "seeds": [SEEDS[0], SEEDS[-1]],
        "run_seconds": spec["run_seconds"],
        "workloads": summary,
    })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
