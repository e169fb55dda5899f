"""Start ``qsm-repro serve`` with layer tracing inside its runners.

Usage: ``python3 perfbench/serve_traced.py TRACE_DIR serve --cache DIR ...``

Each sweep request runs in a runner process forked from the server.
While ``TRACE_DIR/on`` exists, a runner wraps the layer entry points
(:func:`layers.instrument`) for its request and writes its spans and
per-layer totals to ``TRACE_DIR/runner-<pid>.json``.  Without the flag
file the runner is the unmodified one.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main() -> int:
    trace_dir = Path(sys.argv[1])
    import repro.service.runner as runner
    from repro.experiments import cli

    original = runner.runner_main

    def traced_runner_main(*args, **kwargs):
        if not (trace_dir / "on").exists():
            return original(*args, **kwargs)
        tracer = layers.Tracer(spans=True)
        tracer.begin_op()
        with layers.instrument(tracer):
            original(*args, **kwargs)
        tracer.write(trace_dir / f"runner-{os.getpid()}.json")

    runner.runner_main = traced_runner_main
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
