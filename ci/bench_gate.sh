#!/usr/bin/env bash
# Benchmark counts gate: run each workload of BENCHMARK.json short and
# compare the deterministic counts of its final JSON line against
# ci/bench_counts.json. Gated: correct, failed == 0, execs_to_verdict
# exactly equal, allocs_per_exec within the bound BENCHMARK.json sets
# for it wherever the baseline file records one (a change that moves
# either count on purpose updates the baseline file; service-jobs'
# allocations scale with wall time and stay advisory, see the file's
# comment). Time, RSS and latency are printed beside them and never
# gated: they need interleaved parent/change pairs on dedicated cores
# (bench/README.md), which a per-PR runner is not.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - <<'EOF'
import json, subprocess, sys

baseline = json.load(open("ci/bench_counts.json"))["workloads"]
benchmark = json.load(open("BENCHMARK.json"))
contract = {m["name"]: m for m in benchmark["end_to_end"]}
alloc_bound = contract["allocs_per_exec"]["bound"]
advisory = [n for n in contract if n not in ("execs_to_verdict", "allocs_per_exec")]

failures = []
for name in (w["name"] for w in benchmark["workloads"]):
    if name not in baseline:
        failures.append(f"{name}: no baseline in ci/bench_counts.json")
        continue
    want = baseline[name]
    run = subprocess.run(
        benchmark["command"] + ["--workload", name, "--seed", "1", "--seconds", "2.5", "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(run.stdout[-2000:])
        failures.append(f"{name}: the benchmark exited {run.returncode}")
        continue
    got = json.loads(run.stdout.splitlines()[-1])
    metric = lambda n: got["metrics"][n]["value"]
    execs, allocs = metric("execs_to_verdict"), metric("allocs_per_exec")
    print(f"{name}: correct={got['correct']} failed={got['failed']}/{got['attempted']} "
          f"execs_to_verdict={execs:.0f} (want {want['execs_to_verdict']})")
    if not got["correct"]:
        failures.append(f"{name}: a verdict or canary is wrong (correct=false)")
    if got["failed"] != 0:
        failures.append(f"{name}: {got['failed']} of {got['attempted']} operations failed")
    if execs != want["execs_to_verdict"]:
        failures.append(f"{name}: execs_to_verdict {execs:.0f}, want exactly {want['execs_to_verdict']}")
    if "allocs_per_exec" in want:
        drift = allocs / want["allocs_per_exec"] - 1
        print(f"  allocs_per_exec={allocs:.2f} (baseline {want['allocs_per_exec']}, {drift:+.2%})")
        if abs(drift) > alloc_bound:
            failures.append(f"{name}: allocs_per_exec {allocs:.2f} is {drift:+.2%} from the baseline "
                            f"{want['allocs_per_exec']}, bound {alloc_bound:.0%}")
    else:
        print(f"  allocs_per_exec={allocs:.2f} (no baseline: advisory)")
    print("  advisory: " + "  ".join(
        f"{n}={metric(n):.3f}{contract[n]['unit']}" for n in advisory), flush=True)

for f in failures:
    print("FAIL:", f)
if failures:
    sys.exit(1)
print("OK: benchmark counts match ci/bench_counts.json")
EOF
