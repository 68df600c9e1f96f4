#!/usr/bin/env bash
# Non-test Go lines per package, and the total: the number ROADMAP says
# to track per PR (it should go down). Counts tracked files outside the
# frozen bench/ module, comments and blank lines included — the same
# count as `git ls-files '*.go' ':!bench' | grep -v _test.go | xargs wc -l`.
set -euo pipefail

cd "$(dirname "$0")/.."

git ls-files '*.go' ':!bench' | grep -v '_test\.go$' | while read -r f; do
    printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
