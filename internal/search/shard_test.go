package search_test

import (
	"reflect"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/search"
)

// runPlan executes every shard of a plan sequentially and merges the
// reports in index order — the distributed coordinator's data path
// without the network.
func runPlan(t *testing.T, prog func(*engine.T), opts search.Options, refP int) *search.Report {
	t.Helper()
	plan, err := search.PlanShards(prog, opts, refP)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	if len(plan.Shards) < 2 {
		t.Fatalf("plan has %d shards; want a real split", len(plan.Shards))
	}
	m := search.NewShardMerger(opts, plan)
	for i, sh := range plan.Shards {
		m.Offer(i, search.RunShard(prog, opts, sh, nil))
	}
	if !m.Done() {
		t.Fatal("merger not done after offering every shard")
	}
	rep := m.Finish(0, nil)
	search.ConfirmFindings(prog, opts, rep)
	return rep
}

// TestShardPlanMatchesParallelPrefix: planning, running, and merging
// the shards of a systematic search by hand — the path the local
// driver, the coordinator and the jobs service all run — reproduces the
// sequential report exactly.
func TestShardPlanMatchesParallelPrefix(t *testing.T) {
	progs := map[string]func(*engine.T){
		"racy": racyIncrement,
		"fig3": fig3,
	}
	for name, prog := range progs {
		for _, cont := range []bool{false, true} {
			opts := search.Options{
				Fair:                   true,
				ContextBound:           -1,
				MaxSteps:               10000,
				ContinueAfterViolation: cont,
				ConfirmRuns:            2,
			}
			got := runPlan(t, prog, opts, 2)
			ref := search.Explore(prog, opts)
			if !reflect.DeepEqual(normalize(ref), normalize(got)) {
				t.Fatalf("%s cont=%v: sharded run differs from the sequential search:\n%+v\nvs\n%+v",
					name, cont, ref, got)
			}
		}
	}
}

// TestShardPlanMatchesParallelStride: same for the seeded random
// strategies, where shards are global execution-index ranges.
func TestShardPlanMatchesParallelStride(t *testing.T) {
	for _, pct := range []bool{false, true} {
		for _, cont := range []bool{false, true} {
			opts := search.Options{
				Fair:                   true,
				RandomWalk:             !pct,
				PCT:                    pct,
				MaxExecutions:          400,
				MaxSteps:               1000,
				Seed:                   3,
				ContinueAfterViolation: cont,
				ConfirmRuns:            2,
			}
			got := runPlan(t, racyIncrement, opts, 2)
			ref := search.Explore(racyIncrement, opts)
			if !reflect.DeepEqual(normalize(ref), normalize(got)) {
				t.Fatalf("pct=%v cont=%v: sharded run differs from the sequential search:\n%+v\nvs\n%+v",
					pct, cont, ref, got)
			}
		}
	}
}

// TestShardPlanNeedsBudget: random strategies cannot be sharded
// without a deterministic execution budget.
func TestShardPlanNeedsBudget(t *testing.T) {
	_, err := search.PlanShards(racyIncrement, search.Options{
		Fair: true, RandomWalk: true, MaxSteps: 1000, TimeLimit: 1,
	}, 2)
	if err == nil {
		t.Fatal("PlanShards accepted a random walk without MaxExecutions")
	}
}

// TestRangePlanShape: a random walk's budget is cut into 8×P ranges
// while they hold at most 4096 executions, and above that into a
// multiple of 8×P equal ranges, of which the plan holds the first 8×P.
func TestRangePlanShape(t *testing.T) {
	for _, c := range []struct{ budget, chunk int64 }{{4000, 250}, {100_000, 3125}, {1_000_000, 3907}} {
		plan, err := search.PlanShards(racyIncrement, search.Options{
			Fair: true, RandomWalk: true, MaxExecutions: c.budget, MaxSteps: 1000,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Shards) != 16 {
			t.Fatalf("budget %d: %d ranges planned, want 16", c.budget, len(plan.Shards))
		}
		for i, sh := range plan.Shards {
			if sh.Index != i || sh.Lo != int64(i)*c.chunk+1 || sh.Hi != int64(i+1)*c.chunk {
				t.Fatalf("budget %d: range %d is %d [%d, %d], want ranges of %d", c.budget, i, sh.Index, sh.Lo, sh.Hi, c.chunk)
			}
		}
	}
}

// TestShardMergerLateDuplicate: a second report for an already-decided
// shard (a late result arriving after a retry finished first) must not
// change the merge.
func TestShardMergerLateDuplicate(t *testing.T) {
	opts := search.Options{
		Fair: true, RandomWalk: true, MaxExecutions: 400, MaxSteps: 1000, Seed: 3,
		ContinueAfterViolation: true,
	}
	plan, err := search.PlanShards(racyIncrement, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*search.Report, len(plan.Shards))
	for i, sh := range plan.Shards {
		reports[i] = search.RunShard(racyIncrement, opts, sh, nil)
	}
	m := search.NewShardMerger(opts, plan)
	for i := range plan.Shards {
		m.Offer(i, reports[i])
		m.Offer(i, reports[i]) // duplicate: must be ignored
	}
	got := m.Finish(0, nil)
	ref := runPlan(t, racyIncrement, opts, 2)
	// ConfirmFindings ran only on ref; align.
	search.ConfirmFindings(racyIncrement, opts, got)
	if !reflect.DeepEqual(normalize(ref), normalize(got)) {
		t.Fatalf("duplicate offers changed the merge:\n%+v\nvs\n%+v", ref, got)
	}
}
