#!/usr/bin/env bash
# Weak-memory litmus smoke test: run the litmus fixture family through
# the CLI under -mm=tso and require (a) the documented verdict for each
# fixture — SB finds its weak outcome, the fenced/control shapes
# exhaust clean — and (b) a byte-identical run report at -p 1 and -p 4:
# flush-agent steps are ordinary transitions, so TSO searches keep the
# same determinism contract as everything else.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"

# prog:expected-exit (0 = clean exhaust, 1 = finding)
cases="litmus-sb:1 litmus-sb-fenced:0 litmus-mp:0 litmus-lb:0"

for case in $cases; do
    prog=${case%%:*}
    want=${case##*:}
    for p in 1 4; do
        rc=0
        "$fairmc" check -prog "$prog" -mm tso -maxsteps 10000 -p "$p" \
            -metrics-out "$workdir/$prog-p$p.json" \
            > "$workdir/$prog-p$p.txt" 2>&1 || rc=$?
        if [ "$rc" -ne "$want" ]; then
            echo "FAIL: $prog -mm tso -p $p exited $rc, want $want"
            cat "$workdir/$prog-p$p.txt"
            exit 1
        fi
    done
    if ! cmp -s "$workdir/$prog-p1.json" "$workdir/$prog-p4.json"; then
        echo "FAIL: $prog -mm tso run report differs between -p 1 and -p 4"
        diff "$workdir/$prog-p1.json" "$workdir/$prog-p4.json" || true
        exit 1
    fi
done

# The weak outcome must be a memory-model finding, not a logic bug: the
# same binary under the default SC model exhausts SB clean.
rc=0
"$fairmc" check -prog litmus-sb -maxsteps 10000 -p 1 \
    > "$workdir/sb-sc.txt" 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: litmus-sb under SC exited $rc, want 0"
    cat "$workdir/sb-sc.txt"
    exit 1
fi

# A bounded store buffer is a different search space with the same
# contract: cap 1 forces eager flushes and SB still finds the weak
# outcome (one buffered store per thread is all it takes).
rc=0
"$fairmc" check -prog litmus-sb -mm tso -tso-buf 1 -maxsteps 10000 -p 1 \
    -metrics-out "$workdir/sb-cap1.json" > "$workdir/sb-cap1.txt" 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: litmus-sb -mm tso -tso-buf 1 exited $rc, want 1"
    cat "$workdir/sb-cap1.txt"
    exit 1
fi

echo "OK: litmus verdicts hold under -mm=tso and reports are identical at -p 1/4"
