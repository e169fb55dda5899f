"""Host fingerprint, fresh-interpreter set-up probes and run history."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def fingerprint(root: Path) -> Dict[str, object]:
    """CPU count and model, Python/numpy versions, scipy presence, commit."""
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
        "commit": commit,
    }


def append_history(path: Path, record: dict) -> None:
    """Append one run record (JSON line); earlier records are kept."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def program_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(root: Path, store_dir: Optional[Path] = None) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    the CLI entry module (and opened *store_dir*, when given)."""
    code = "import repro.experiments.cli\n"
    if store_dir is not None:
        code += f"from repro import store\nstore.set_store({str(store_dir)!r})\n"
    code += "print('ready', flush=True)\n"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=root, env=program_env(root),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe did not reach 'ready'")
    return elapsed


def import_profile(root: Path, top: int = 5) -> Tuple[float, int, List[Tuple[str, float]]]:
    """``-X importtime`` of the CLI entry module in a fresh interpreter:
    (total seconds, modules imported, top contributors).  A contributor
    is an outside top-level package as imported directly by one ``repro``
    module, named ``importer -> package`` with its cumulative seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.experiments.cli"],
        cwd=root, env=program_env(root), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import profile failed: {proc.stderr[-500:]}")
    total_us = 0
    lines = [
        line[len("import time:"):].split("|", 2)
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "cumulative" not in line
    ]
    # importtime prints children before their parent, indented 2 more.
    parents: Dict[int, str] = {}
    contributors: Dict[str, float] = {}
    for _self, cumulative, raw in reversed(lines):
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        name = raw.strip()
        parents[depth] = name
        parent = parents.get(depth - 1, "")
        if depth == 0:
            total_us += int(cumulative)
        elif parent.startswith("repro") and not name.startswith("repro"):
            key = f"{parent} -> {name.split('.')[0]}"
            contributors[key] = contributors.get(key, 0.0) + int(cumulative) / 1e6
    ranked = sorted(contributors.items(), key=lambda e: -e[1])
    return total_us / 1e6, len(lines), ranked[:top]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile, or 0.0 when fewer than ten samples lie
    beyond it (too few to report)."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return 0.0
    return float(sorted(values)[max(0, math.ceil(q * n) - 1)])
