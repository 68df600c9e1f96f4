#!/usr/bin/env bash
# Observability smoke test: run the checker with -progress and
# -metrics-out on the spinloop fixture, validate the emitted run
# report against the checked-in JSON Schema, and require the report
# bytes to be identical at -p 1 and -p 4 (the determinism contract of
# docs/OBSERVABILITY.md).
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fairmc" ./cmd/fairmc
fairmc="$workdir/fairmc"

"$fairmc" check -prog spinloop -p 1 -progress \
    -metrics-out "$workdir/report-p1.json" \
    -events-out "$workdir/events.jsonl" > "$workdir/run.txt"
grep -q "run report written" "$workdir/run.txt" || {
    echo "FAIL: CLI did not report writing the run report"
    cat "$workdir/run.txt"
    exit 1
}

go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/report-p1.json"

# The event stream must be line-delimited JSON with the expected
# lifecycle events present.
python3 - "$workdir/events.jsonl" <<'EOF'
import json, sys
types = set()
with open(sys.argv[1]) as f:
    for line in f:
        types.add(json.loads(line)["type"])
missing = {"schedule", "yield", "exec_end"} - types
if missing:
    sys.exit(f"FAIL: event stream missing types {missing} (got {types})")
print("OK: event stream is valid JSONL with", types)
EOF

"$fairmc" check -prog spinloop -p 4 -metrics-out "$workdir/report-p4.json" > /dev/null
if ! cmp -s "$workdir/report-p1.json" "$workdir/report-p4.json"; then
    echo "FAIL: run report differs between -p 1 and -p 4"
    diff "$workdir/report-p1.json" "$workdir/report-p4.json" || true
    exit 1
fi

# A finding run must validate too (findings entries, reproducibility).
"$fairmc" check -prog peterson-bug -metrics-out "$workdir/report-bug.json" > /dev/null || rc=$?
if [ "${rc:-0}" -ne 1 ]; then
    echo "FAIL: peterson-bug exited ${rc:-0}, want 1"
    exit 1
fi
go run ./ci/validate_report.go docs/run-report.schema.json "$workdir/report-bug.json"

echo "OK: run report validates and is identical at -p 1 and -p 4"
