#!/usr/bin/env bash
# Non-test Go lines per package, and the total: the number ROADMAP says
# to track per PR (it should go down). Counts tracked files outside the
# frozen bench/ module, comments and blank lines included — the same
# count as `git ls-files '*.go' ':!bench' | grep -v _test.go | xargs wc -l`.
#
# With --check the total is also compared with the committed
# ci/loc_baseline and the script exits 1 when it is higher: a PR that
# grows the tree says so by raising the baseline in the same diff, one
# that shrinks it lowers it.
set -euo pipefail

cd "$(dirname "$0")/.."

report=$(git ls-files '*.go' ':!bench' | grep -v '_test\.go$' | while read -r f; do
    printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }')
echo "$report"

if [ "${1:-}" = "--check" ]; then
    total=$(echo "$report" | awk '$2 == "total" { print $1 }')
    baseline=$(cat ci/loc_baseline)
    if [ "$total" -gt "$baseline" ]; then
        echo "loc: $total non-test lines, ci/loc_baseline allows $baseline" >&2
        exit 1
    fi
    echo "loc: $total <= baseline $baseline"
fi
