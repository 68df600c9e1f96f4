#!/usr/bin/env bash
# Distributed-search smoke test: run `fairmc serve -prog` (the jobs
# service running one job) with two worker processes over loopback HTTP
# and require the final run report to be byte-identical to a local run
# with the same -p (the determinism contract of docs/DISTRIBUTED.md), on
# a clean search, on one that stops at a finding and on a DPOR search;
# then the same over -ledger across kill -9 and rerun. Reports are
# validated against the checked-in JSON Schema.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"
port=$((20000 + RANDOM % 20000))
url="http://127.0.0.1:$port"

# finish_worker PID LOG: the service stays up after its job until every
# worker it had granted work has come back and been told it is done, so
# a worker exits 0, and within seconds of the service.
finish_worker() {
    local pid=$1 log=$2 wrc=0
    for _ in $(seq 80); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: worker still running 8s after the service exited"
        cat "$log"
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    wait "$pid" || wrc=$?
    if [ "$wrc" -ne 0 ]; then
        echo "FAIL: worker exited $wrc, want 0 (it was not told the service is done?)"
        cat "$log"
        exit 1
    fi
}

# start_workers TAG: two pool workers. They ride out connection-refused
# until the service listens, so they may start before it.
start_workers() {
    local i
    for i in 1 2; do
        "$fairmc" worker -url "$url" -p 1 -join-timeout 5s -retry-base 25ms -retry-max 400ms \
            > "$workdir/w$i-$1.txt" 2>&1 &
        eval "w$i=\$!"
    done
}

# distrun PROG EXPECTED_EXIT OUT.json [EXTRA_FLAGS...]: 2 workers, then
# the service running PROG as its one job.
distrun() {
    local prog=$1 want=$2 out=$3 rc=0
    shift 3
    start_workers "$prog"
    "$fairmc" serve -addr "127.0.0.1:$port" -prog "$prog" -p 2  \
        -metrics-out "$out" "$@" > "$workdir/serve-$prog.txt" 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "FAIL: $prog -serve run exited $rc, want $want"
        cat "$workdir/serve-$prog.txt"
        exit 1
    fi
    finish_worker "$w1" "$workdir/w1-$prog.txt"
    finish_worker "$w2" "$workdir/w2-$prog.txt"
}

# Clean search: spinloop is exhausted without findings (exit 0).
"$fairmc" check -prog spinloop -p 2 -metrics-out "$workdir/local-clean.json" > /dev/null
distrun spinloop 0 "$workdir/dist-clean.json"
if ! cmp -s "$workdir/local-clean.json" "$workdir/dist-clean.json"; then
    echo "FAIL: spinloop run report differs between local -p 2 and distributed"
    diff "$workdir/local-clean.json" "$workdir/dist-clean.json" || true
    exit 1
fi
go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/dist-clean.json"

# Finding search: peterson-bug stops at a confirmed violation (exit 1),
# and the distributed merge must stop at the same execution.
rc=0
"$fairmc" check -prog peterson-bug -p 2 -metrics-out "$workdir/local-bug.json" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: local peterson-bug exited $rc, want 1"
    exit 1
fi
distrun peterson-bug 1 "$workdir/dist-bug.json"
if ! cmp -s "$workdir/local-bug.json" "$workdir/dist-bug.json"; then
    echo "FAIL: peterson-bug run report differs between local -p 2 and distributed"
    diff "$workdir/local-bug.json" "$workdir/dist-bug.json" || true
    exit 1
fi
go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/dist-bug.json"

# DPOR search: the work-unit plan grows as units merge, and the merged
# report must be byte-identical to the SEQUENTIAL DPOR run (docs/
# DPOR.md's determinism contract — the distributed merge consumes units
# in spawn order). msqueue-bug stops at a confirmed violation (exit 1).
rc=0
"$fairmc" check -prog msqueue-bug -fair=false -dpor -maxsteps 5000 \
    -metrics-out "$workdir/local-dpor.json" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: local sequential DPOR msqueue-bug exited $rc, want 1"
    exit 1
fi
distrun msqueue-bug 1 "$workdir/dist-dpor.json" -fair=false -dpor -maxsteps 5000
if ! cmp -s "$workdir/local-dpor.json" "$workdir/dist-dpor.json"; then
    echo "FAIL: msqueue-bug DPOR run report differs between sequential and distributed"
    diff "$workdir/local-dpor.json" "$workdir/dist-dpor.json" || true
    exit 1
fi
go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/dist-dpor.json"

# Restart: the same command over -ledger, killed -9 mid-run and run
# again, adopts the unfinished job from the WAL and ends with the report
# of an uninterrupted local -p 2 run. The subject is ticketlock, two
# seconds of search: the kill lands mid-run, and the rerun outlasts the
# workers' backoff (a worker that never reached the second incarnation
# could not have been told it was done).
"$fairmc" check -prog ticketlock -p 2 -metrics-out "$workdir/local-restart.json" > /dev/null
ledger="$workdir/ledger"
start_workers restart
"$fairmc" serve -addr "127.0.0.1:$port" -prog ticketlock -p 2  -ledger "$ledger" \
    -metrics-out "$workdir/killed.json" > "$workdir/serve-killed.txt" 2>&1 &
svc=$!
for _ in $(seq 500); do
    grep -q "completed by worker" "$workdir/serve-killed.txt" && break
    sleep 0.01
done
kill -9 "$svc"
wait "$svc" 2>/dev/null || true
"$fairmc" serve -addr "127.0.0.1:$port" -prog ticketlock -p 2  -ledger "$ledger" \
    -metrics-out "$workdir/resumed.json" > "$workdir/serve-resumed.txt" 2>&1
finish_worker "$w1" "$workdir/w1-restart.txt"
finish_worker "$w2" "$workdir/w2-restart.txt"
if ! cmp -s "$workdir/local-restart.json" "$workdir/resumed.json"; then
    echo "FAIL: ticketlock run report after kill -9 + rerun differs from local -p 2"
    diff "$workdir/local-restart.json" "$workdir/resumed.json" || true
    cat "$workdir/serve-resumed.txt"
    exit 1
fi

# The ledger belongs to that search: another spec is refused (exit 2)...
rc=0
"$fairmc" serve -addr "127.0.0.1:$port" -prog ticketlock -p 3  -ledger "$ledger" \
    > "$workdir/serve-other.txt" 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "FAIL: -serve -p 3 over a -p 2 ledger exited $rc, want 2"
    cat "$workdir/serve-other.txt"
    exit 1
fi
# ...and the finished search is reported again without exploring: no
# worker is running, and none is needed.
"$fairmc" serve -addr "127.0.0.1:$port" -prog ticketlock -p 2  -ledger "$ledger" \
    -metrics-out "$workdir/again.json" > "$workdir/serve-again.txt" 2>&1
if ! cmp -s "$workdir/local-restart.json" "$workdir/again.json"; then
    echo "FAIL: a finished ledger's rerun report differs from local -p 2"
    diff "$workdir/local-restart.json" "$workdir/again.json" || true
    exit 1
fi
if grep -q "leased to worker\|completed by worker" "$workdir/serve-again.txt"; then
    echo "FAIL: rerun over a finished ledger explored again"
    cat "$workdir/serve-again.txt"
    exit 1
fi

echo "OK: distributed run reports are byte-identical to local runs, across kill -9 and rerun too, and validate"
