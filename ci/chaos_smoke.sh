#!/usr/bin/env bash
# Chaos smoke test: the distributed determinism contract must survive
# injected faults. Two layers:
#
#   1. The seeded in-process chaos harness under the race detector:
#      three workers behind deterministic fault injectors (drops,
#      delays, duplicates, truncations, resets, partition windows),
#      one killed mid-run, plus the spool-replay and idempotency
#      suites. Each test asserts the merged report equals a fault-free
#      local run, byte for byte.
#
#   2. A CLI-level run: `serve -prog` (the jobs service running one
#      job) + two pool workers started with -chaos-scenario standard
#      (different -chaos-seed each) — faults on their lease calls and
#      on every call to a job's path — with the merged run report diffed
#      against a fault-free local -p 2 baseline. Faults here hit real
#      loopback HTTP, not an in-process handler.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go test -race -count=1 \
    -run 'TestDistChaos|TestDistSpoolReplay|TestDistDuplicateResultPost|TestDistLateResultAfterRequeue|TestDistStaleWorkerID|TestDistStaleLease|TestDistHeartbeatMetricsDedup|TestDistLoadShedding' \
    ./internal/dist/ ./internal/dist/jobs/

go build -race -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"
port=$((20000 + RANDOM % 20000))
url="http://127.0.0.1:$port"

# Fault-free baseline: spinloop is exhausted without findings, so the
# merge must cover every shard for the reports to match.
"$fairmc" check -prog spinloop -p 2 -metrics-out "$workdir/local.json" > /dev/null

"$fairmc" serve -addr "127.0.0.1:$port" -prog spinloop -p 2  \
    -metrics-out "$workdir/chaos.json" > "$workdir/coord.txt" 2>&1 &
coord=$!
for i in 1 2; do
    "$fairmc" worker -url "$url" -p 1 \
        -chaos-scenario standard -chaos-seed "$((6 + i))" \
        -retry-base 25ms -retry-max 400ms -join-timeout 15s \
        > "$workdir/w$i.txt" 2>&1 &
    eval "w$i=\$!"
done
rc=0
wait "$coord" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: chaos -serve run exited $rc, want 0"
    cat "$workdir/coord.txt"
    exit 1
fi
# Chaos workers may exit nonzero after the service is gone (an injected
# fault can eat the "done" answer and the drain grace with it); only a
# hang is a failure: -join-timeout bounds how long they look for it.
for pid in "$w1" "$w2"; do
    for _ in $(seq 200); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: chaos worker still running 20s after the service exited"
        cat "$workdir/w1.txt" "$workdir/w2.txt"
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    wait "$pid" 2>/dev/null || true
done

if ! grep -q "chaos: [1-9][0-9]* faults injected" "$workdir/w1.txt" "$workdir/w2.txt"; then
    echo "FAIL: neither worker reports an injected fault: is -chaos-scenario wired into the pool worker?"
    cat "$workdir/w1.txt" "$workdir/w2.txt"
    exit 1
fi
if ! cmp -s "$workdir/local.json" "$workdir/chaos.json"; then
    echo "FAIL: run report differs between fault-free local -p 2 and chaos run"
    diff "$workdir/local.json" "$workdir/chaos.json" || true
    exit 1
fi
go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/chaos.json"

echo "OK: merged run report under injected faults is byte-identical to the fault-free baseline"
