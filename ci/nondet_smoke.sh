#!/usr/bin/env bash
# Nondeterminism-quarantine smoke test: run the deliberately
# nondeterministic fixture end to end through the CLI and require the
# search to quarantine the diverging subtrees, warn about them, and
# still exit 0 — a quarantine is incomplete coverage, not a finding.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"

rc=0
"$fairmc" check -prog nondet-counter -maxexec 300 -maxsteps 2000 \
    > "$workdir/out.txt" 2>&1 || rc=$?
cat "$workdir/out.txt"

if [ "$rc" -ne 0 ]; then
    echo "FAIL: nondet-counter run exited $rc, want 0 (quarantine is a warning, not a finding)"
    exit 1
fi
grep -Eq "warning: [0-9]+ subtree\(s\) quarantined" "$workdir/out.txt" || {
    echo "FAIL: no quarantine warning in output"
    exit 1
}
grep -q "nondeterminism:" "$workdir/out.txt" || {
    echo "FAIL: no per-subtree nondeterminism report in output"
    exit 1
}

# The defense can be switched off: without conformance digests the
# fixture's hidden counter goes unnoticed and nothing is quarantined.
rc=0
"$fairmc" check -prog nondet-counter -maxexec 300 -maxsteps 2000 -no-conformance \
    > "$workdir/off.txt" 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: -no-conformance run exited $rc, want 0"
    cat "$workdir/off.txt"
    exit 1
fi
if grep -q "quarantined" "$workdir/off.txt"; then
    echo "FAIL: -no-conformance run still quarantined subtrees"
    cat "$workdir/off.txt"
    exit 1
fi
echo "OK: quarantine fires with conformance on, silent with it off"
