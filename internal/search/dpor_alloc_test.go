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

// TestDporUnitAllocBudget is the allocation gate of a DPOR unit run:
// the executions of boundedbuffer's first units — engine, chooser,
// sleep set, race analysis and the packaged result, on one engine pool
// as a worker runs them — stay under a budget set about 10 % above the
// figure measured before every unit carried sleep sets (46; 37 since,
// 36 since the result keeps the race analysis's proposals uncopied).
// The chooser's record is three arenas and a sleep set recycled across
// runs; a change that goes back to allocating per step shows here first.
func TestDporUnitAllocBudget(t *testing.T) {
	p, ok := progs.Lookup("boundedbuffer")
	if !ok {
		t.Fatal("boundedbuffer is not registered")
	}
	opts := search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true}
	plan, err := search.PlanShards(p.Body, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pool engine.Pool
	defer pool.Close()
	const units = 64
	m := search.NewShardMerger(opts, plan)
	shards := make([]search.Shard, 0, units)
	for i := 0; i < units; i++ {
		sh := plan.Shards[i]
		u := *sh.Unit // the merge releases the plan's copy
		sh.Unit = &u
		shards = append(shards, sh)
		m.Offer(i, search.RunShardOn(&pool, p.Body, opts, sh, nil))
	}
	perUnit := testing.AllocsPerRun(5, func() {
		for _, sh := range shards {
			search.RunShardOn(&pool, p.Body, opts, sh, nil)
		}
	}) / units
	const budget = 51
	t.Logf("%.1f allocations per unit run (budget %d)", perUnit, budget)
	if perUnit > budget {
		t.Fatalf("%.1f allocations per unit run, budget %d", perUnit, budget)
	}
}
