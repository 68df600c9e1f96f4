#!/usr/bin/env bash
# Checkpoint/resume smoke test: SIGINT a checkpointed search mid-run,
# resume it from the checkpoint, and require the resumed report to be
# identical to an uninterrupted baseline modulo wall-clock times. Two
# phases: a random walk of bakery-2 and a fair DFS of ticketlock, both
# at -p 1 with an execution budget.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"

normalize() { sed -E 's/\([0-9.]+s,/(TIME,/' "$1"; }

# interrupt NAME ARGS...: run a checkpointed search of ARGS into
# $workdir/NAME.ckpt, SIGINT it once a checkpoint has landed, and require
# it to stop with the interrupted status and name its checkpoint.
interrupt() {
    local name=$1 ck="$workdir/$1.ckpt" out="$workdir/$1-interrupted.txt" pid rc=0
    shift
    "$fairmc" check "$@" -checkpoint "$ck" -ckpt-interval 100ms > "$out" 2>&1 &
    pid=$!
    for _ in $(seq 1 200); do
        [ -s "$ck" ] && break
        sleep 0.05
    done
    if ! [ -s "$ck" ]; then
        echo "FAIL: $name: no checkpoint written within 10s"
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    kill -INT "$pid"
    wait "$pid" || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "FAIL: $name: interrupted run exited $rc, want 3"
        cat "$out"
        exit 1
    fi
    grep -q "interrupted (checkpoint written to" "$out" || {
        echo "FAIL: $name: interrupted run did not report its checkpoint"
        cat "$out"
        exit 1
    }
}

# same NAME: the resumed report must match the uninterrupted baseline.
same() {
    if ! diff <(normalize "$workdir/$1-baseline.txt") <(normalize "$workdir/$1-resumed.txt"); then
        echo "FAIL: $1: resumed report differs from uninterrupted baseline"
        exit 1
    fi
    echo "OK: $1: resumed report matches uninterrupted baseline"
}

# Random walk: the interrupted run has a much larger budget so it cannot
# finish on its own; the resume supplies the baseline's (a budget may
# change across a resume). Program, strategy, seed and parallelism come
# from the checkpoint.
"$fairmc" check -prog bakery-2 -random -seed 9 -p 1 -maxexec 30000 \
    > "$workdir/random-baseline.txt"
interrupt random -prog bakery-2 -random -seed 9 -p 1 -maxexec 2000000
"$fairmc" check -resume "$workdir/random.ckpt" -maxexec 30000 > "$workdir/random-resumed.txt"
same random

# Fair DFS: a checkpointed -p 1 search is one shard, the whole tree,
# paused for every checkpoint and its rest spliced into the plan, so the
# report — budget cut included — is the sequential search's.
"$fairmc" check -prog ticketlock -p 1 -maxexec 150000 > "$workdir/dfs-baseline.txt"
interrupt dfs -prog ticketlock -p 1 -maxexec 150000
"$fairmc" check -resume "$workdir/dfs.ckpt" -maxexec 150000 > "$workdir/dfs-resumed.txt"
same dfs
