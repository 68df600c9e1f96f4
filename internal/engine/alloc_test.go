package engine_test

import (
	"testing"

	"fairmc/internal/engine"
	"fairmc/progs"
)

// The allocation budgets are regression gates, not targets: the
// measured figure plus 2. A pooled spinloop execution allocates 2
// objects, both the program's: the closures of its two thread bodies.
// Everything else it needs per step or per execution — ops (OpSlot),
// its IntVar (ObjSlab), thread records with their T and Handle,
// coroutines, step buffers, the Result — is reused from the execution
// before. It allocated 3 while the IntVar was the program's.
//
// A single-use engine.Run has no execution before, so it makes all of
// that once: 73 objects, most of them its three worker coroutines
// (iter.Pull allocates 7 or 8 per coroutine, the runtime 6 more that
// the memory profile does not attribute, newWorker 2). The rest are the
// program's closures, the engine and its Result, the fair scheduler's
// state, three thread records with their slot tables and first ops, the
// IntVar's store (its table, chunk list and first chunk: 2 more than a
// heap IntVar), the bit sets and the step buffers, each made once at a
// size that fits a short execution. That is the price of a replay or
// confirmation run, not of the search loop, which runs pooled.
const (
	spinloopAllocBudget       = 81
	spinloopAllocBudgetPooled = 4
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
