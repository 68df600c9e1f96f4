package engine_test

import (
	"testing"

	"fairmc/internal/engine"
	"fairmc/progs"
)

// The allocation budgets are regression gates, not targets: the seed
// engine spent 122 heap allocations per spinloop execution; the
// fast-path work (buffer reuse, fair-state reset, engine pooling)
// brought that to 84/28 (plain/pooled), and reusing the fair
// scheduler's yield-window H buffer took it to 81/24. Since model
// threads run on coroutines the plain figure is 115: a single-use
// engine makes its three worker coroutines anew in every Run, and a
// coroutine costs 13 allocations (iter.Pull's closures and captured
// variables) where a go statement and a resume channel cost two. That
// is the price of replay and confirmation runs, not of the search
// loop, which runs pooled and still measures 24. CI fails these
// tests if a change creeps back over the measured numbers plus a small
// jitter margin.
const (
	spinloopAllocBudget       = 122
	spinloopAllocBudgetPooled = 28
)

func spinloopCfg() engine.Config {
	return engine.Config{Fair: true, RecordTrace: true}
}

func TestSpinLoopAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		engine.Run(progs.SpinLoop, engine.RunToCompletionChooser{}, spinloopCfg())
	})
	if allocs > spinloopAllocBudget {
		t.Fatalf("spinloop allocates %.0f per execution, budget is %d", allocs, spinloopAllocBudget)
	}
	t.Logf("spinloop: %.0f allocs/exec (budget %d)", allocs, spinloopAllocBudget)
}

func TestSpinLoopAllocBudgetPooled(t *testing.T) {
	var pool engine.Pool
	defer pool.Close()
	pool.Run(progs.SpinLoop, engine.RunToCompletionChooser{}, spinloopCfg())
	allocs := testing.AllocsPerRun(100, func() {
		pool.Run(progs.SpinLoop, engine.RunToCompletionChooser{}, spinloopCfg())
	})
	if allocs > spinloopAllocBudgetPooled {
		t.Fatalf("pooled spinloop allocates %.0f per execution, budget is %d", allocs, spinloopAllocBudgetPooled)
	}
	t.Logf("pooled spinloop: %.0f allocs/exec (budget %d)", allocs, spinloopAllocBudgetPooled)
}
