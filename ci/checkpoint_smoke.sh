#!/usr/bin/env bash
# Checkpoint/resume smoke test: stop a search that checkpoints into a
# directory mid-run, rerun the same search over the directory, and
# require the rerun's report to be identical to an uninterrupted
# baseline modulo wall-clock times. Three phases: a random walk of
# bakery-2 and a fair DFS of ticketlock, both at -p 1 with an execution
# budget and stopped by SIGINT, and a DPOR search of readerswriters at
# -p 2, stopped by kill -9 with its latest records unsynced.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"

normalize() { sed -E 's/\([0-9.]+s,/(TIME,/' "$1"; }

# size DIR: the bytes its ledger segments hold, 0 before it has any.
size() { { du -cb "$1"/wal-*.seg 2>/dev/null || true; } | awk 'END { print $1 + 0 }'; }

# interrupt SIGNAL NAME ARGS...: run a search of ARGS that checkpoints
# into the directory $workdir/NAME, send it SIGNAL once it has recorded
# a shard past its plan, and require a SIGINT'd run to stop with the
# interrupted status and name its directory.
interrupt() {
    local sig=$1 name=$2 ck="$workdir/$2" out="$workdir/$2-interrupted.txt" pid rc=0 planned=0
    shift 2
    "$fairmc" check "$@" -checkpoint "$ck" -ckpt-interval 100ms > "$out" 2>&1 &
    pid=$!
    for _ in $(seq 1 200); do
        planned=$(size "$ck")
        [ "$planned" -gt 8 ] && break
        sleep 0.05
    done
    for _ in $(seq 1 200); do
        [ "$(size "$ck")" -gt "$planned" ] && break
        sleep 0.05
    done
    if [ "$(size "$ck")" -le "$planned" ]; then
        echo "FAIL: $name: no shard recorded within 20s"
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    kill -"$sig" "$pid"
    wait "$pid" 2>/dev/null || rc=$?
    [ "$sig" = KILL ] && return
    if [ "$rc" -ne 3 ]; then
        echo "FAIL: $name: interrupted run exited $rc, want 3"
        cat "$out"
        exit 1
    fi
    grep -q "interrupted (rerun with -checkpoint $ck to resume)" "$out" || {
        echo "FAIL: $name: interrupted run did not name its checkpoint directory"
        cat "$out"
        exit 1
    }
}

# same NAME: the rerun's report must match the uninterrupted baseline.
same() {
    if ! diff <(normalize "$workdir/$1-baseline.txt") <(normalize "$workdir/$1-resumed.txt"); then
        echo "FAIL: $1: resumed report differs from uninterrupted baseline"
        exit 1
    fi
    echo "OK: $1: resumed report matches uninterrupted baseline"
}

# Random walk: the interrupted run has a much larger budget so it cannot
# finish on its own; the rerun gives the baseline's (a budget may change
# from run to run). Program, strategy, seed and parallelism come from
# the directory.
"$fairmc" check -prog bakery-2 -random -seed 9 -p 1 -maxexec 30000 \
    > "$workdir/random-baseline.txt"
interrupt INT random -prog bakery-2 -random -seed 9 -p 1 -maxexec 2000000
"$fairmc" check -checkpoint "$workdir/random" -maxexec 30000 > "$workdir/random-resumed.txt"
same random

# Fair DFS: a checkpointed -p 1 search is one shard, the whole tree,
# paused for every checkpoint, its report naming the rest of it, so the
# report — budget cut included — is the sequential search's.
"$fairmc" check -prog ticketlock -p 1 -maxexec 150000 > "$workdir/dfs-baseline.txt"
interrupt INT dfs -prog ticketlock -p 1 -maxexec 150000
"$fairmc" check -checkpoint "$workdir/dfs" -maxexec 150000 > "$workdir/dfs-resumed.txt"
same dfs

# DPOR at -p 2: every unit's report is appended as it arrives and synced
# every interval; kill -9 leaves the ledger as the process last wrote
# it, and the rerun folds what recovery keeps (the units in flight run
# again). Options other than program, strategy, seed and -p are given
# again: the directory refuses a rerun they would change.
dpor=(-fair=false -dpor -maxsteps 5000)
"$fairmc" check -prog readerswriters "${dpor[@]}" -p 2 > "$workdir/dpor-baseline.txt"
interrupt KILL dpor -prog readerswriters "${dpor[@]}" -p 2
"$fairmc" check -checkpoint "$workdir/dpor" "${dpor[@]}" > "$workdir/dpor-resumed.txt"
same dpor
