#!/usr/bin/env bash
# Sweep-as-a-service demo: start the batch front-end, submit the same
# fig1 sweep three times, and prove the later submissions executed zero
# simulator points, returned byte-identical payloads, and ran on the
# worker slots' reused runners, none of which outlives the server.
#
# Usage: examples/serve_demo.sh [PORT]   (run from the repo root)
set -euo pipefail

PORT="${1:-18642}"
WORK="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

export PYTHONPATH=src

python -m repro.experiments.cli serve \
    --cache "$WORK/cache" --port "$PORT" --jobs 2 &
SERVER_PID=$!

python - "$PORT" <<'PYEOF'
import sys
from repro.service import client

assert client.wait_ready(port=int(sys.argv[1]), timeout=30.0), "server never came up"
PYEOF

echo "== first submission (cold cache) =="
python -m repro.experiments.cli submit fig1 --fast \
    --port "$PORT" --json "$WORK/first.json"

echo "== second submission (must be free) =="
python -m repro.experiments.cli submit fig1 --fast \
    --port "$PORT" --json "$WORK/second.json" | tee "$WORK/second.log"

cmp "$WORK/first.json" "$WORK/second.json"
grep -q "0 miss(es)" "$WORK/second.log"
echo "== OK: second run was all cache hits and byte-identical =="

echo "== third submission (must reuse a runner) =="
python -m repro.experiments.cli submit fig1 --fast \
    --port "$PORT" --json "$WORK/third.json" | tee "$WORK/third.log"
cmp "$WORK/first.json" "$WORK/third.json"
grep -q "0 miss(es)" "$WORK/third.log"

python - "$PORT" "$WORK/runner_pids" <<'PYEOF'
import sys
from repro.service import client

stats = client.stats(port=int(sys.argv[1]))
print(stats)
runners = stats["runners"]
workers = stats["admission"]["max_workers"]
assert 1 <= runners["started"] <= workers, runners
assert runners["reused"] >= 1, runners
with open(sys.argv[2], "w") as fh:
    fh.write(" ".join(map(str, runners["pids"])))
client.shutdown(port=int(sys.argv[1]))
PYEOF
wait "$SERVER_PID" 2>/dev/null || true
for pid in $(cat "$WORK/runner_pids"); do
    if kill -0 "$pid" 2>/dev/null; then
        echo "runner $pid outlived the server" >&2
        exit 1
    fi
done
echo "== OK: runners were reused and none is left after shutdown =="
