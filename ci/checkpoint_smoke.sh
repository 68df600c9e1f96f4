#!/usr/bin/env bash
# Checkpoint/resume smoke test: SIGINT a checkpointed search mid-run,
# resume it from the checkpoint, and require the resumed report to be
# identical to an uninterrupted baseline modulo wall-clock times.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"

# Uninterrupted baseline.
"$fairmc" check -prog bakery-2 -random -seed 9 -p 1 -maxexec 30000 \
    > "$workdir/baseline.txt"

# Same search with a much larger budget so it cannot finish on its own,
# checkpointed frequently; kill it with SIGINT once a checkpoint lands.
"$fairmc" check -prog bakery-2 -random -seed 9 -p 1 -maxexec 2000000 \
    -checkpoint "$workdir/ck.json" -ckpt-interval 100ms \
    > "$workdir/interrupted.txt" 2>&1 &
pid=$!
for _ in $(seq 1 200); do
    [ -s "$workdir/ck.json" ] && break
    sleep 0.05
done
if ! [ -s "$workdir/ck.json" ]; then
    echo "FAIL: no checkpoint written within 10s"
    kill "$pid" 2>/dev/null || true
    exit 1
fi
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: interrupted run exited $rc, want 3"
    cat "$workdir/interrupted.txt"
    exit 1
fi
grep -q "interrupted (checkpoint written to" "$workdir/interrupted.txt" || {
    echo "FAIL: interrupted run did not report its checkpoint"
    cat "$workdir/interrupted.txt"
    exit 1
}

# Resume with the baseline's budget; program/strategy/seed/parallelism
# come from the checkpoint. The finished report must match the baseline.
"$fairmc" check -resume "$workdir/ck.json" -maxexec 30000 > "$workdir/resumed.txt"

normalize() { sed -E 's/\([0-9.]+s,/(TIME,/' "$1"; }
if ! diff <(normalize "$workdir/baseline.txt") <(normalize "$workdir/resumed.txt"); then
    echo "FAIL: resumed report differs from uninterrupted baseline"
    exit 1
fi
echo "OK: resumed report matches uninterrupted baseline"
