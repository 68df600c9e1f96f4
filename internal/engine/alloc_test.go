package engine_test

import (
	"testing"

	"fairmc/internal/engine"
	"fairmc/progs"
)

// The allocation budgets are regression gates, not targets: the
// measured figure plus 2. A pooled spinloop execution allocates 3
// objects, all three the program's: its IntVar and the closures of its
// two thread bodies. Everything the engine needs per step or per
// execution — ops (OpSlot), thread records with their T and Handle,
// coroutines, step buffers, the Result — is reused from the execution
// before.
//
// A single-use engine.Run has no execution before, so it makes all of
// that once: 79 objects. 47 of them are its three worker coroutines:
// iter.Pull allocates 7 or 8 per coroutine (its closures and the
// variables they capture), the runtime 6 more that the memory profile
// does not attribute (the coroutine's g and coro), and newWorker 2 (the
// worker and its loop closure) — against two for a go statement and a
// resume channel before threads were coroutines. The other 32 are the
// program's three, the engine and its Result, the fair scheduler's
// state, three thread records with their slot tables and first ops, the
// bit sets and the step buffers, each made once at a size that fits a
// short execution. That is the price of a replay or confirmation run,
// not of the search loop, which runs pooled.
const (
	spinloopAllocBudget       = 81
	spinloopAllocBudgetPooled = 5
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
