package search_test

import (
	"runtime"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/fuzzprog"
	"fairmc/internal/obs"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
	"fairmc/progs"
)

func TestDPORFindsRace(t *testing.T) {
	rep := search.Explore(racyIncrement, search.Options{
		Fair:         false,
		ContextBound: -1,
		MaxSteps:     10000,
		DPOR:         true,
	})
	if rep.FirstBug == nil {
		t.Fatalf("DPOR missed the lost-update race (%d executions)", rep.Executions)
	}
}

func TestDPORFindsDeadlock(t *testing.T) {
	abba := func(t *engine.T) {
		a := syncmodel.NewMutex(t, "a")
		b := syncmodel.NewMutex(t, "b")
		t.Go("ab", func(t *engine.T) {
			a.Lock(t)
			b.Lock(t)
			b.Unlock(t)
			a.Unlock(t)
		})
		t.Go("ba", func(t *engine.T) {
			b.Lock(t)
			a.Lock(t)
			a.Unlock(t)
			b.Unlock(t)
		})
	}
	rep := search.Explore(abba, search.Options{
		Fair: false, ContextBound: -1, MaxSteps: 10000, DPOR: true,
	})
	if rep.FirstBug == nil || rep.FirstBug.Outcome != engine.Deadlock {
		t.Fatalf("DPOR missed the deadlock: %+v", rep)
	}
}

// parallel3 is the maximally independent workload: DPOR should
// collapse the interleaving explosion to near-linear.
func parallel3(t *engine.T) {
	vars := make([]*syncmodel.IntVar, 3)
	for i := range vars {
		vars[i] = syncmodel.NewIntVar(t, "v", 0)
	}
	wg := syncmodel.NewWaitGroup(t, "wg", 3)
	for i := 0; i < 3; i++ {
		i := i
		t.Go("w", func(t *engine.T) {
			vars[i].Store(t, 1)
			vars[i].Store(t, 2)
			wg.Done(t)
		})
	}
	wg.Wait(t)
}

func TestDPORReducesExecutions(t *testing.T) {
	plain := search.Explore(parallel3, search.Options{
		Fair: false, ContextBound: -1, MaxSteps: 10000,
	})
	dpor := search.Explore(parallel3, search.Options{
		Fair: false, ContextBound: -1, MaxSteps: 10000, DPOR: true,
	})
	if !plain.Exhausted || !dpor.Exhausted {
		t.Fatalf("searches not exhausted: plain %+v dpor %+v", plain, dpor)
	}
	// The conservative variant (no happens-before filtering) keeps
	// roughly a 9x reduction on this workload; demand at least 5x.
	if dpor.Executions*5 > plain.Executions {
		t.Fatalf("DPOR reduction too weak: %d vs %d", dpor.Executions, plain.Executions)
	}
	t.Logf("executions: plain %d, DPOR %d", plain.Executions, dpor.Executions)
}

func TestDPORComposesWithSleepSets(t *testing.T) {
	both := search.Explore(parallel3, search.Options{
		Fair: false, ContextBound: -1, MaxSteps: 10000, DPOR: true, SleepSets: true,
	})
	if !both.Exhausted {
		t.Fatalf("not exhausted: %+v", both)
	}
	solo := search.Explore(parallel3, search.Options{
		Fair: false, ContextBound: -1, MaxSteps: 10000, DPOR: true,
	})
	if both.Executions > solo.Executions {
		t.Fatalf("sleep sets on top of DPOR increased executions: %d > %d",
			both.Executions, solo.Executions)
	}
}

// TestDPORBugParityWithFullDFS checks the bug-preservation guarantee
// differentially: across seeded terminating programs (some with a
// planted assertion), DPOR finds a bug iff the full DFS does.
func TestDPORBugParityWithFullDFS(t *testing.T) {
	// A transient-state bug program parameterized by whether the
	// window exists.
	transient := func(buggy bool) func(*engine.T) {
		return func(t *engine.T) {
			x := syncmodel.NewIntVar(t, "x", 0)
			m := syncmodel.NewMutex(t, "m")
			wg := syncmodel.NewWaitGroup(t, "wg", 2)
			t.Go("A", func(t *engine.T) {
				if !buggy {
					m.Lock(t)
				}
				x.Store(t, 1)
				x.Store(t, 0)
				if !buggy {
					m.Unlock(t)
				}
				wg.Done(t)
			})
			t.Go("B", func(t *engine.T) {
				if !buggy {
					m.Lock(t)
				}
				t.Assert(x.Load(t) != 1, "transient state observed")
				if !buggy {
					m.Unlock(t)
				}
				wg.Done(t)
			})
			wg.Wait(t)
		}
	}
	for _, buggy := range []bool{false, true} {
		plain := search.Explore(transient(buggy), search.Options{
			Fair: false, ContextBound: -1, MaxSteps: 10000,
		})
		for _, sleep := range []bool{false, true} {
			dpor := search.Explore(transient(buggy), search.Options{
				Fair: false, ContextBound: -1, MaxSteps: 10000,
				DPOR: true, SleepSets: sleep,
			})
			if (plain.FirstBug != nil) != (dpor.FirstBug != nil) {
				t.Fatalf("buggy=%v sleep=%v: DFS found=%v, DPOR found=%v",
					buggy, sleep, plain.FirstBug != nil, dpor.FirstBug != nil)
			}
		}
	}
	// Clean generated programs: DPOR must stay clean and exhaust.
	cfg := fuzzprog.DefaultConfig()
	cfg.AllowSpin = false
	cfg.OpsPerThread = 3
	for seed := uint64(0); seed < 15; seed++ {
		prog := fuzzprog.Generate(cfg, seed)
		for _, sleep := range []bool{false, true} {
			rep := search.Explore(prog, search.Options{
				Fair: false, ContextBound: -1, MaxSteps: 1 << 16,
				DPOR: true, SleepSets: sleep,
			})
			if rep.FirstBug != nil {
				t.Fatalf("seed %d sleep=%v: DPOR false finding:\n%s",
					seed, sleep, rep.FirstBug.FormatTrace())
			}
			if !rep.Exhausted {
				t.Fatalf("seed %d sleep=%v: DPOR did not exhaust", seed, sleep)
			}
		}
	}
}

func TestDPORRequiresPlainSearch(t *testing.T) {
	for _, opts := range []search.Options{
		{DPOR: true, Fair: true},
		{DPOR: true, RandomWalk: true, MaxExecutions: 1},
		{DPOR: true, DepthBound: 10},
		{DPOR: true, StatefulPrune: true},
	} {
		opts := opts
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", opts)
				}
			}()
			search.Explore(parallel3, opts)
		}()
	}
}

// TestDPORDivergenceSkipsRaceAnalysis: a unit that runs into MaxSteps is
// a divergence finding, so nothing will be spawned from it — whether
// the finding stops the merge or (ContinueAfterDivergence) it goes on —
// and its MaxSteps-long trace must not be paid for twice over: no
// quadratic race analysis (2·10⁸ pair comparisons at 20 000 steps, and
// again in every child, each of which diverges too), no per-prefix
// record in the dedup set. barrier-bug spins under the unfair scheduler;
// at 20 000 steps the per-prefix string keys alone were over a gigabyte.
// The ceiling is on bytes allocated, never on wall-clock time.
func TestDPORDivergenceSkipsRaceAnalysis(t *testing.T) {
	p, ok := progs.Lookup("barrier-bug")
	if !ok {
		t.Fatal("barrier-bug is not registered")
	}
	for _, goOn := range []bool{false, true} {
		metrics := obs.NewMetrics()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := search.Explore(p.Body, search.Options{
			ContextBound: -1, MaxSteps: 20000, DPOR: true, Metrics: metrics,
			ContinueAfterDivergence: goOn,
		})
		runtime.ReadMemStats(&after)
		// A merge that goes on past the finding runs out of units at once.
		if rep.Divergence == nil || rep.DivergenceExecution != 1 || rep.Exhausted != goOn || rep.Executions != 1 {
			t.Fatalf("ContinueAfterDivergence=%v: want the divergence finding at execution 1 and nothing spawned from it, got %+v", goOn, rep)
		}
		if races := metrics.Snapshot().DporRaces; races != 0 {
			t.Fatalf("ContinueAfterDivergence=%v: race analysis ran over the diverging trace: %d races", goOn, races)
		}
		const ceiling = 128 << 20
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("ContinueAfterDivergence=%v: allocated %d MB", goOn, got>>20)
		if got > ceiling {
			t.Fatalf("ContinueAfterDivergence=%v: the search allocated %d MB, ceiling %d MB", goOn, got>>20, ceiling>>20)
		}
	}
}
