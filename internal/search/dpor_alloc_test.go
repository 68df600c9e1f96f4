//go:build !race

package search_test

// Not under the race detector: sync.Pool then drops items at random, and
// the count over the chooser's recycled buffers stops being repeatable.

import (
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/progs"
)

// dporUnitsUnderBudget is how many of boundedbuffer's units the DPOR
// allocation gates run and merge: its first, in spawn order.
const dporUnitsUnderBudget = 64

var dporBudgetOpts = search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true}

// boundedbufferUnits runs and merges boundedbuffer's first n DPOR units
// in spawn order, on one engine pool as a worker runs them, and returns
// their shards (each holding its own copy of the unit, which the merge
// releases from the plan) and their reports.
func boundedbufferUnits(t *testing.T, pool *engine.Pool, n int) (func(*engine.T), []search.Shard, []*search.Report) {
	t.Helper()
	p, ok := progs.Lookup("boundedbuffer")
	if !ok {
		t.Fatal("boundedbuffer is not registered")
	}
	plan, err := search.PlanShards(p.Body, dporBudgetOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := search.NewShardMerger(dporBudgetOpts, plan)
	shards := make([]search.Shard, 0, n)
	reps := make([]*search.Report, 0, n)
	for i := 0; i < n; i++ {
		sh := plan.Shards[i]
		u := *sh.Unit
		sh.Unit = &u
		r := search.RunShardOn(pool, p.Body, dporBudgetOpts, sh, nil)
		shards, reps = append(shards, sh), append(reps, r)
		m.Offer(i, r)
	}
	return p.Body, shards, reps
}

// TestDporUnitAllocBudget is the allocation gate of a DPOR unit run:
// the executions of boundedbuffer's first units — engine, chooser,
// sleep set, race analysis and the packaged result, on one engine pool
// as a worker runs them — stay under a budget set about 15 % above the
// measured 15.6 (46 before every unit carried sleep sets; 37 since, 36
// since the result keeps the race analysis's proposals uncopied, 28.4
// since the analysis runs on the chooser's scratch, 15.6 since the
// program's model objects are recycled with the engine). The chooser's
// record is three arenas, a sleep set and the analysis's scratch
// recycled across runs; a change that goes back to allocating per step
// or per race shows here first.
func TestDporUnitAllocBudget(t *testing.T) {
	var pool engine.Pool
	defer pool.Close()
	body, shards, _ := boundedbufferUnits(t, &pool, dporUnitsUnderBudget)
	perUnit := testing.AllocsPerRun(5, func() {
		for _, sh := range shards {
			search.RunShardOn(&pool, body, dporBudgetOpts, sh, nil)
		}
	}) / dporUnitsUnderBudget
	const budget = 18
	t.Logf("%.1f allocations per unit run (budget %d)", perUnit, budget)
	if perUnit > budget {
		t.Fatalf("%.1f allocations per unit run, budget %d", perUnit, budget)
	}
}

// TestDporMergeAllocBudget is the allocation gate of the merge side of
// a DPOR unit: ShardMerger.Offer over boundedbuffer's first unit
// reports, the spawn of their children included (a fresh plan and
// merger per pass, whose own few allocations are spread over the
// units). The merge walks each report on scratch it keeps; what it
// allocates is the children it plans, each kind of their slices cut from
// one allocation per report. The budget is about 10 % above the measured
// 1.8 (11.6 when the walk allocated its arrays and every child its own
// slices).
func TestDporMergeAllocBudget(t *testing.T) {
	var pool engine.Pool
	defer pool.Close()
	body, _, reps := boundedbufferUnits(t, &pool, dporUnitsUnderBudget)
	perUnit := testing.AllocsPerRun(5, func() {
		plan, err := search.PlanShards(body, dporBudgetOpts, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := search.NewShardMerger(dporBudgetOpts, plan)
		for i, r := range reps {
			m.Offer(i, r)
		}
	}) / dporUnitsUnderBudget
	const budget = 2.0
	t.Logf("%.1f allocations per merged unit (budget %.1f)", perUnit, budget)
	if perUnit > budget {
		t.Fatalf("%.1f allocations per merged unit, budget %.1f", perUnit, budget)
	}
}
