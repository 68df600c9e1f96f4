#!/usr/bin/env bash
# Durable-service smoke test with real processes: run the multi-job
# checking service (serve -ledger) with a pool worker, submit three
# jobs, and require every artifact to be byte-identical to the local
# run it mirrors. Then do it again on a fresh ledger, kill -9 the
# service mid-run, restart it on the same ledger, and require the
# exact same artifacts — the WAL recovery contract of docs/SERVICE.md.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"
port=$((20000 + RANDOM % 20000))
url="http://127.0.0.1:$port"

# The job matrix: program, reference -p. spinloop exhausts cleanly,
# peterson-bug stops at a confirmed violation — both completion shapes.
progs=(spinloop peterson-bug spinloop)
pars=(2 1 1)

# Local references, through the same reporting path.
for i in 0 1 2; do
    "$fairmc" check -prog "${progs[$i]}" -p "${pars[$i]}" \
        -metrics-out "$workdir/local-$i.json" > /dev/null || true
done

# wait_done LABEL: poll job status until every job reports done+[report].
wait_done() {
    local label=$1
    for _ in $(seq 300); do
        local out
        out=$("$fairmc" job status -url "$url" 2>/dev/null) || { sleep 0.2; continue; }
        local done_count
        done_count=$(echo "$out" | grep -c 'done.*\[report\]' || true)
        [ "$done_count" -eq 3 ] && return 0
        sleep 0.2
    done
    echo "FAIL: $label: jobs never finished"
    "$fairmc" job status -url "$url" || true
    exit 1
}

fetch_all() {
    local prefix=$1
    for i in 0 1 2; do
        "$fairmc" job status -url "$url" -job "j$((i + 1))" \
            -metrics-out "$workdir/$prefix-$i.json" > /dev/null
    done
}

check_against_local() {
    local prefix=$1 label=$2
    for i in 0 1 2; do
        if ! cmp -s "$workdir/local-$i.json" "$workdir/$prefix-$i.json"; then
            echo "FAIL: $label: j$((i + 1)) (${progs[$i]} -p ${pars[$i]}) artifact differs from local run"
            diff "$workdir/local-$i.json" "$workdir/$prefix-$i.json" || true
            exit 1
        fi
        go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/$prefix-$i.json"
    done
}

# submit_all retries its first submission until the service listens;
# nothing else waits for it — a worker rides out connection-refused.
submit_all() {
    for i in 0 1 2; do
        for _ in $(seq 100); do
            "$fairmc" job submit -url "$url" -prog "${progs[$i]}" -p "${pars[$i]}" > /dev/null 2>&1 && break
            sleep 0.05
        done
    done
}

# --- Pass 1: uninterrupted service run, the worker started first ---
mkdir -p "$workdir/ledger1" "$workdir/wd1"
"$fairmc" worker -url "$url" -workdir "$workdir/wd1" -retry-base 25ms -retry-max 400ms \
    > "$workdir/pool1.txt" 2>&1 &
pool=$!
"$fairmc" serve -addr "127.0.0.1:$port" -ledger "$workdir/ledger1" \
    > "$workdir/svc1.txt" 2>&1 &
svc=$!
submit_all
wait_done "pass 1"
fetch_all base
check_against_local base "pass 1"
# A graceful stop tells the worker the service is done: it exits 0 on
# its own.
kill "$svc"
wait "$svc" 2>/dev/null || true
rc=0
wait "$pool" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: pass 1: worker exited $rc after the service shut down, want 0"
    cat "$workdir/pool1.txt"
    exit 1
fi

# --- Pass 2: kill -9 the service mid-run, restart, same artifacts ---
mkdir -p "$workdir/ledger2" "$workdir/wd2"
"$fairmc" serve -addr "127.0.0.1:$port" -ledger "$workdir/ledger2" \
    > "$workdir/svc2a.txt" 2>&1 &
svc=$!
"$fairmc" worker -url "$url" -workdir "$workdir/wd2" -retry-base 25ms -retry-max 400ms \
    > "$workdir/pool2a.txt" 2>&1 &
pool=$!
submit_all
# Land the kill while shards are still being committed (if the run is
# already done, the restart still has to serve artifacts from the
# ledger alone — both timings are valid recovery cases).
sleep 0.5
kill -9 "$svc"
kill "$pool" 2>/dev/null || true
wait "$pool" 2>/dev/null || true

"$fairmc" serve -addr "127.0.0.1:$port" -ledger "$workdir/ledger2" \
    > "$workdir/svc2b.txt" 2>&1 &
svc=$!
"$fairmc" worker -url "$url" -workdir "$workdir/wd2" -retry-base 25ms -retry-max 400ms \
    > "$workdir/pool2b.txt" 2>&1 &
pool=$!
wait_done "pass 2 (after kill -9 + restart)"
fetch_all recovered
check_against_local recovered "pass 2 (after kill -9 + restart)"
if ! grep -q "re-queued\|resumed\|replay" "$workdir/svc2b.txt"; then
    # Informational only: the restart may have found everything done.
    true
fi
kill "$pool" 2>/dev/null || true
kill "$svc" 2>/dev/null || true
wait "$pool" "$svc" 2>/dev/null || true

echo "OK: service artifacts are byte-identical to local runs, including across kill -9 + WAL recovery"
