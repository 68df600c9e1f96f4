package progs_test

// Verdict tests for the weak-memory fixture family: every fixture's
// documented SC/TSO/TSO-fenced verdict is asserted here, so the matrix
// in the fixtures' doc comments is executable, not aspirational.

import (
	"testing"
	"time"

	"fairmc"
	"fairmc/progs"
)

// tsoOpts is bugOpts under the TSO memory model.
func tsoOpts() fairmc.Options {
	o := bugOpts()
	o.MemModel = "tso"
	return o
}

// checkClean asserts that a bounded fair search finds nothing.
func checkClean(t *testing.T, name string, opts fairmc.Options) *fairmc.Result {
	t.Helper()
	p, ok := progs.Lookup(name)
	if !ok {
		t.Fatalf("program %q not registered", name)
	}
	res := mustCheck(t, p.Body, opts)
	if !res.Ok() {
		if res.FirstBug != nil {
			t.Fatalf("%s: unexpected bug: %s", name, res.FirstBug.FormatTrace())
		}
		t.Fatalf("%s: unexpected divergence: %v", name, res.Liveness)
	}
	return res
}

func TestWeakMemoryFixturesPassUnderSC(t *testing.T) {
	// Under sequential consistency (the default) the whole family is
	// correct: the planted bugs are memory-model bugs, not logic bugs.
	for _, name := range []string{
		"litmus-sb", "litmus-sb-fenced", "litmus-mp", "litmus-lb",
		"peterson-tso", "peterson-tso-fenced",
		"seqlock-tso", "seqlock-tso-fenced",
		"wm-tso-livelock", "wm-tso-livelock-fenced",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			checkClean(t, name, bugOpts())
		})
	}
}

func TestLitmusSBWeakOutcomeUnderTSO(t *testing.T) {
	res := checkFindsBug(t, "litmus-sb", tsoOpts())
	if res.FirstBug.Outcome != fairmc.Violation {
		t.Fatalf("outcome = %v, want violation", res.FirstBug.Outcome)
	}
	// The weak outcome is pure flush delay: the counterexample schedule
	// must replay to the same verdict under the same memory model.
	p, _ := progs.Lookup("litmus-sb")
	rr := mustReplay(t, p.Body, res.FirstBug.Schedule, tsoOpts())
	if rr.Outcome != res.FirstBug.Outcome {
		t.Fatalf("replay outcome = %v, want %v", rr.Outcome, res.FirstBug.Outcome)
	}
}

func TestLitmusSBFencedExhaustsUnderTSO(t *testing.T) {
	res := checkClean(t, "litmus-sb-fenced", tsoOpts())
	if !res.Exhausted {
		t.Fatalf("fenced SB search did not exhaust: %+v", res.Report)
	}
}

func TestLitmusControlsPassUnderTSO(t *testing.T) {
	// MP and LB hold under TSO (FIFO buffers; no load/store reordering):
	// if either fails here the model is weaker than TSO.
	for _, name := range []string{"litmus-mp", "litmus-lb"} {
		name := name
		t.Run(name, func(t *testing.T) {
			res := checkClean(t, name, tsoOpts())
			if !res.Exhausted {
				t.Fatalf("%s search did not exhaust: %+v", name, res.Report)
			}
		})
	}
}

func TestPetersonTSOBugAllStrategies(t *testing.T) {
	p, ok := progs.Lookup("peterson-tso")
	if !ok {
		t.Fatal("peterson-tso not registered")
	}
	// Flush delay is first-class scheduler nondeterminism, so every
	// strategy enumerates it natively — including plain fair DFS, which
	// the old pump-thread encoding drowned in yield subtrees. The DFS
	// run uses preemption bound 0: the violation is pure flush delay
	// (no program-thread preemption needed — agent steps are exempt
	// from the bound), and the zero-preemption space is small enough to
	// reach it systematically.
	t.Run("dfs", func(t *testing.T) {
		o := tsoOpts()
		o.ContextBound = 0
		checkFindsBug(t, "peterson-tso", o)
	})
	t.Run("pct", func(t *testing.T) {
		res := mustCheck(t, p.Body, fairmc.Options{
			Fair: true, PCT: true, PCTDepth: 3,
			MaxExecutions: 20000, MaxSteps: 5000, Seed: 3,
			MemModel:  "tso",
			TimeLimit: 60 * time.Second,
		})
		if res.FirstBug == nil {
			t.Fatalf("PCT found no TSO violation in %d executions", res.Executions)
		}
	})
	t.Run("dpor", func(t *testing.T) {
		res := mustCheck(t, p.Body, fairmc.Options{
			Fair: false, ContextBound: -1, DPOR: true,
			MaxSteps: 600, ContinueAfterDivergence: true,
			TimeLimit: 60 * time.Second,
			MemModel:  "tso",
		})
		if res.FirstBug == nil {
			t.Fatalf("DPOR found no TSO violation in %d executions", res.Executions)
		}
	})
}

func TestPetersonTSOFencedCleanUnderTSO(t *testing.T) {
	// At preemption bound 0 the fenced variant's TSO space is fully
	// exhaustible: a complete proof that the fence closes the bug class
	// the DFS subtest above exhibits at the same bound.
	o := tsoOpts()
	o.ContextBound = 0
	res := checkClean(t, "peterson-tso-fenced", o)
	if !res.Exhausted {
		t.Fatalf("fenced Peterson cb=0 search did not exhaust: %+v", res.Report)
	}
}

func TestSeqlockTornUnderTSO(t *testing.T) {
	// The torn read needs a precise flush interleaving deep in a large
	// space; systematic DFS drowns in the early subtrees, while the
	// randomized strategies find it in seconds — the paper's
	// strategy-comparison lesson, replayed on a memory-model bug.
	p, ok := progs.Lookup("seqlock-tso")
	if !ok {
		t.Fatal("seqlock-tso not registered")
	}
	res := mustCheck(t, p.Body, fairmc.Options{
		Fair: true, RandomWalk: true,
		MaxExecutions: 20000, MaxSteps: 5000, Seed: 3,
		MemModel:  "tso",
		TimeLimit: 60 * time.Second,
	})
	if res.FirstBug == nil {
		t.Fatalf("random walk found no torn read in %d executions", res.Executions)
	}
	if res.FirstBug.Outcome != fairmc.Violation {
		t.Fatalf("outcome = %v, want violation", res.FirstBug.Outcome)
	}
}

func TestSeqlockFencedCleanUnderTSO(t *testing.T) {
	// The same random walk that breaks the unfenced variant in a few
	// hundred executions stays clean on the fenced one.
	p, _ := progs.Lookup("seqlock-tso-fenced")
	res := mustCheck(t, p.Body, fairmc.Options{
		Fair: true, RandomWalk: true,
		MaxExecutions: 20000, MaxSteps: 5000, Seed: 3,
		MemModel:  "tso",
		TimeLimit: 60 * time.Second,
	})
	if !res.Ok() {
		t.Fatalf("random walk flagged the fenced seqlock: %+v", res.Report)
	}
}

// livelockOpts mirrors the other livelock-detection tests: unbounded
// preemptions, small divergence bound.
func livelockOpts(mm string) fairmc.Options {
	return fairmc.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     400,
		TimeLimit:    30 * time.Second,
		MemModel:     mm,
	}
}

func TestWMLivelockOnlyUnderTSO(t *testing.T) {
	// The fixture fair-terminates under SC; under TSO an adversarial
	// flush schedule livelocks it — and because both threads yield every
	// round and the flush agents keep running, the diverging execution
	// is fair: it must classify as fair nontermination, not as a
	// good-samaritan violation.
	t.Run("sc-terminates", func(t *testing.T) {
		res := checkClean(t, "wm-tso-livelock", livelockOpts("sc"))
		if !res.Exhausted {
			t.Fatalf("SC search did not exhaust: %+v", res.Report)
		}
	})
	t.Run("tso-livelocks", func(t *testing.T) {
		p, _ := progs.Lookup("wm-tso-livelock")
		res := mustCheck(t, p.Body, livelockOpts("tso"))
		if res.FirstBug != nil {
			t.Fatalf("unexpected safety bug: %s", res.FirstBug.FormatTrace())
		}
		if res.Divergence == nil {
			t.Fatalf("TSO livelock not detected: %+v", res.Report)
		}
		if res.Liveness == nil || res.Liveness.Kind != fairmc.FairNontermination {
			t.Fatalf("liveness = %v, want fair nontermination", res.Liveness)
		}
	})
	t.Run("tso-fenced-terminates", func(t *testing.T) {
		res := checkClean(t, "wm-tso-livelock-fenced", livelockOpts("tso"))
		if !res.Exhausted {
			t.Fatalf("fenced TSO search did not exhaust: %+v", res.Report)
		}
	})
}
