package search_test

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
	"fairmc/progs"
)

// mallocsPerExec runs the search and returns the heap objects it
// allocated per execution, everything included: the searcher, its
// engine pool and the report are in the numerator.
func mallocsPerExec(t *testing.T, program string, opts search.Options) float64 {
	t.Helper()
	p, ok := progs.Lookup(program)
	if !ok {
		t.Fatalf("%s is not registered", program)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := search.Explore(p.Body, opts)
	runtime.ReadMemStats(&after)
	if rep.Executions != opts.MaxExecutions || rep.FirstBug != nil || rep.Divergence != nil {
		t.Fatalf("%s: %d executions, want a clean run of %d: %+v", program, rep.Executions, opts.MaxExecutions, rep)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(rep.Executions)
}

// TestFairDFSAllocBudget pins what the steady-state systematic search
// allocates per execution: ticketlock under fair DFS measures 4.0 — the
// program's two closures and two thread names; its five model objects
// are the engine's, recycled. It was 9.0 while the program allocated its
// objects, and 67.6 while every step boxed an op, every choice point
// made four slices and every result was copied. The budget leaves room
// for a program-side change, not for any of those to come back.
func TestFairDFSAllocBudget(t *testing.T) {
	got := mallocsPerExec(t, "ticketlock", search.Options{
		Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 5000})
	const budget = 6
	t.Logf("ticketlock fair DFS: %.2f allocations per execution (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("ticketlock fair DFS allocates %.2f per execution, budget %d", got, budget)
	}
}

// TestRandomWalkAllocBudget is the same gate on long executions with
// many threads and no schedule tree: dryad-fifo's 25 threads take ~1100
// steps a walk, each of which used to box an op (1517 per execution).
// What is left (204) is the program building its pipelines: closures,
// names and channel structs. Its model objects are recycled with the
// engine; it was 337 while they were the program's. Under the race
// detector the same walk reads 236-238: the race runtime allocates on
// top of the program, about 34 a walk, so that build has a budget of
// its own.
func TestRandomWalkAllocBudget(t *testing.T) {
	got := mallocsPerExec(t, "dryad-fifo", search.Options{
		Fair: true, RandomWalk: true, Seed: 1, MaxSteps: 10000, MaxExecutions: 200})
	budget := 225
	if raceBuild {
		budget = 250
	}
	t.Logf("dryad-fifo fair random walk: %.1f allocations per execution (budget %d)", got, budget)
	if got > float64(budget) {
		t.Fatalf("dryad-fifo fair random walk allocates %.1f per execution, budget %d", got, budget)
	}
}

// replays requires that sched still drives prog step by step: a strict
// replay (digest-verified when digs are given) that applies every step
// and, when sched is a whole execution, reaches outcome want.
func replays(t *testing.T, what string, prog func(*engine.T), opts search.Options, sched []engine.Alt, digs []engine.StepDigest, want *engine.Outcome) {
	t.Helper()
	if len(sched) == 0 {
		t.Fatalf("%s: empty schedule", what)
	}
	ch := &engine.ReplayChooser{Schedule: sched, Digests: digs}
	rr := engine.Run(prog, ch, opts.ReplayConfig())
	if ch.Div != nil {
		t.Fatalf("%s: the kept schedule no longer replays: %v", what, ch.Div)
	}
	if want != nil && rr.Outcome != *want {
		t.Fatalf("%s: replay reached %v, the finding was %v", what, rr.Outcome, *want)
	}
	if want == nil && rr.Steps < int64(len(sched)) {
		t.Fatalf("%s: replay applied %d of %d steps", what, rr.Steps, len(sched))
	}
}

// TestPooledResultOwnership: a Result is the engine pool's until the
// next Run, and whatever outlives that was copied — by Clone, which is
// what the search does for every finding it keeps. So the finding a
// search reports after running on for tens of executions is, field for
// field, the one the same search reports when it stops there, and it
// still replays. RecordTrace makes each result carry its trace, the
// case where the search keeps the execution's own Result and not a
// reproduction of it.
func TestPooledResultOwnership(t *testing.T) {
	t.Run("clone", func(t *testing.T) {
		var pool engine.Pool
		defer pool.Close()
		cfg := engine.Config{Fair: true, RecordTrace: true, RecordDigests: true}
		r1 := pool.Run(fig3, engine.FirstChooser{}, cfg)
		kept := r1.Clone()
		want := kept.FormatTrace()
		steps := r1.Steps
		r2 := pool.Run(fig3, engine.RunToCompletionChooser{}, cfg)
		if r2.Steps == steps {
			t.Fatal("the two choosers ran the same schedule: the test shows nothing")
		}
		if r1 != r2 {
			t.Fatal("the pool returned a second Result: ownership changed, rewrite this test")
		}
		if got := kept.FormatTrace(); got != want || kept.Steps != steps ||
			len(kept.Schedule) != int(steps) || len(kept.Digests) != int(steps) || len(kept.PerThread) != 3 {
			t.Fatalf("the clone changed under the pool's next run:\n%s\nwas\n%s", got, want)
		}
	})

	// kept is what the continuing search holds at its end, stopped what
	// the search that stops at the finding holds.
	same := func(t *testing.T, what string, kept, stopped *engine.Result, keptExec, stoppedExec, execs int64) {
		t.Helper()
		if kept == nil || stopped == nil || execs-keptExec < 10 {
			t.Fatalf("%s: want a finding long before the search ends (execution %d of %d)", what, keptExec, execs)
		}
		if keptExec != stoppedExec || !reflect.DeepEqual(kept, stopped) {
			t.Fatalf("%s changed while the search ran on:\n%s\nthe search stopping there reports\n%s",
				what, kept.FormatTrace(), stopped.FormatTrace())
		}
	}

	t.Run("first-bug", func(t *testing.T) {
		opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000, RecordTrace: true}
		stopped := search.Explore(racyIncrement, opts)
		opts.ContinueAfterViolation = true
		rep := search.Explore(racyIncrement, opts)
		same(t, "FirstBug", rep.FirstBug, stopped.FirstBug, rep.FirstBugExecution, stopped.FirstBugExecution, rep.Executions)
		replays(t, "FirstBug", racyIncrement, opts, rep.FirstBug.Schedule, rep.FirstBug.Digests, &rep.FirstBug.Outcome)
	})

	t.Run("divergence", func(t *testing.T) {
		// Every execution of the token-passing livelock diverges.
		livelock := func(t *engine.T) {
			turn := syncmodel.NewIntVar(t, "turn", 0)
			for i := 0; i < 2; i++ {
				me := int64(i)
				t.Go("p", func(t *engine.T) {
					for {
						if turn.Load(t) == me {
							turn.Store(t, 1-me)
						}
						t.Yield()
					}
				})
			}
		}
		opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 300, MaxExecutions: 50, RecordTrace: true}
		stopped := search.Explore(livelock, opts)
		opts.ContinueAfterDivergence = true
		rep := search.Explore(livelock, opts)
		same(t, "Divergence", rep.Divergence, stopped.Divergence, rep.DivergenceExecution, stopped.DivergenceExecution, rep.Executions)
		replays(t, "Divergence", livelock, opts, rep.Divergence.Schedule, rep.Divergence.Digests, &rep.Divergence.Outcome)
	})

	t.Run("first-wedge", func(t *testing.T) {
		opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000, Watchdog: 30 * time.Millisecond}
		stopped := search.Explore(wedgesOnce(), opts)
		opts.ContinueAfterViolation = true
		rep := search.Explore(wedgesOnce(), opts)
		if rep.Wedges != 1 {
			t.Fatalf("want one wedge: %+v", rep)
		}
		same(t, "FirstWedge", rep.FirstWedge, stopped.FirstWedge, rep.FirstWedgeExecution, stopped.FirstWedgeExecution, rep.Executions)
		// The wedged step is not in the schedule: what replays is the
		// wedge-free prefix.
		replays(t, "FirstWedge", wedgesOnce(), opts, rep.FirstWedge.Schedule, nil, nil)
	})

	t.Run("quarantine-prefix", func(t *testing.T) {
		p, _ := progs.Lookup("nondet-counter")
		opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000, MaxExecutions: 100}
		rep := search.Explore(p.Body, opts)
		if len(rep.Nondeterminism) < 2 {
			t.Fatalf("want quarantined subtrees: %+v", rep)
		}
		// A prefix is copied out of the frame arenas, which the search
		// went on to reuse: it must still end in the step that diverged.
		// The program diverges in what it stores, not in who can run, so
		// the prefix still applies step by step.
		for i, n := range rep.Nondeterminism {
			if len(n.Prefix) != n.Step+1 || n.Prefix[n.Step] != n.Want {
				t.Fatalf("Nondeterminism[%d]: prefix %v for a divergence at step %d wanting %v", i, n.Prefix, n.Step, n.Want)
			}
			replays(t, "Nondeterminism prefix", p.Body, opts, n.Prefix, nil, nil)
		}
	})
}

// wedgesOnce returns a program whose helper thread blocks outside the
// conc API (past any watchdog) the first time it runs, and behaves from
// then on: a search sees one wedge and keeps going.
func wedgesOnce() func(*engine.T) {
	var wedged atomic.Bool // the stuck thread is abandoned, not joined
	return func(t *engine.T) {
		h := t.Go("stuck", func(t *engine.T) {
			if wedged.CompareAndSwap(false, true) {
				select {}
			}
			t.Yield()
			t.Yield()
		})
		t.Yield()
		t.Yield()
		t.Yield()
		h.Join(t)
	}
}
