package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fairmc/internal/tidset"
)

const (
	tT = tidset.Tid(0) // thread t of Figure 3
	tU = tidset.Tid(1) // thread u of Figure 3
)

// TestFigure4Emulation replays the emulation of Algorithm 1 from
// Figure 4 of the paper: the scheduler runs thread u of the Figure 3
// spin-loop program continuously; after u's second yield the edge
// (u, t) appears in P and u becomes unschedulable, forcing t to run.
func TestFigure4Emulation(t *testing.T) {
	f := NewFair(2, 1)
	es := tidset.Of(tT, tU) // both threads enabled throughout

	// Initialization convention: S(u) = D(u) = Tid, E(u) = ∅, P = ∅.
	if !f.WindowS(tU).Equal(es) || !f.WindowD(tU).Equal(es) || !f.WindowE(tU).Empty() {
		t.Fatalf("bad init: %v", f)
	}
	if len(f.Edges()) != 0 {
		t.Fatalf("P not empty at init: %v", f.Edges())
	}

	// Step 1: u executes the while test (a,c) -> (a,d). Not a yield.
	f.OnStep(tU, false, es, es)
	if !f.WindowS(tU).Equal(es) || !f.WindowD(tU).Equal(es) || !f.WindowE(tU).Empty() {
		t.Fatalf("after step 1: %v", f)
	}

	// Step 2: u executes yield() (a,d) -> (a,c). First window closes;
	// H = (∅ ∪ {t,u}) \ {t,u} = ∅, so P stays empty and the window
	// sets are reset: S(u)=∅, D(u)=∅, E(u)=ES.
	f.OnStep(tU, true, es, es)
	if len(f.Edges()) != 0 {
		t.Fatalf("P not empty after first yield: %v", f.Edges())
	}
	if !f.WindowS(tU).Empty() || !f.WindowD(tU).Empty() || !f.WindowE(tU).Equal(es) {
		t.Fatalf("window not reset after first yield: %v", f)
	}

	// Step 3: u executes the while test again. S(u) = {u}.
	f.OnStep(tU, false, es, es)
	if !f.WindowS(tU).Equal(tidset.Of(tU)) || !f.WindowD(tU).Empty() || !f.WindowE(tU).Equal(es) {
		t.Fatalf("after step 3: %v", f)
	}
	// P still empty: the scheduler may still choose either thread.
	if got := f.Schedulable(es); !got.Equal(es) {
		t.Fatalf("Schedulable = %v, want %v", got, es)
	}

	// Step 4: u yields a second time. H = ({t,u} ∪ ∅) \ {u} = {t};
	// the edge (u, t) enters P.
	f.OnStep(tU, true, es, es)
	if !f.Priority(tU, tT) {
		t.Fatalf("edge (u,t) missing: %v", f.Edges())
	}
	if f.Priority(tT, tU) {
		t.Fatal("spurious edge (t,u)")
	}

	// Now T = {t}: the scheduler is forced to run t.
	if got := f.Schedulable(es); !got.Equal(tidset.Of(tT)) {
		t.Fatalf("Schedulable = %v, want {t}", got)
	}

	// If t were disabled, u would become schedulable again: the edge
	// only suppresses u while t is enabled.
	onlyU := tidset.Of(tU)
	if got := f.Schedulable(onlyU); !got.Equal(onlyU) {
		t.Fatalf("Schedulable with t disabled = %v, want {u}", got)
	}

	// Step 5: t runs (a,c) -> (b,c), setting x := 1. Line 13 removes
	// edges with sink t, but (u,t) has sink t... no: (u,t) has source
	// u and sink t, so scheduling t removes it.
	f.OnStep(tT, false, es, es)
	if f.Priority(tU, tT) {
		t.Fatalf("edge (u,t) not removed after t scheduled: %v", f.Edges())
	}
	if got := f.Schedulable(es); !got.Equal(es) {
		t.Fatalf("Schedulable = %v, want both", got)
	}
}

// TestFirstYieldInert verifies the initialization convention: a
// thread's very first yield never adds priority edges, for any
// interleaving prefix without other yields.
func TestFirstYieldInert(t *testing.T) {
	f := NewFair(3, 1)
	es := tidset.Universe(3)
	f.OnStep(0, false, es, es)
	f.OnStep(1, false, es, es)
	f.OnStep(2, true, es, es) // first yield of thread 2
	if len(f.Edges()) != 0 {
		t.Fatalf("first yield added edges: %v", f.Edges())
	}
}

// TestYieldFreeKeepsPEmpty is the heart of Theorem 5: along an
// execution with no yields the priority relation stays empty, so the
// fair scheduler behaves exactly like the unconstrained one.
func TestYieldFreeKeepsPEmpty(t *testing.T) {
	f := NewFair(4, 1)
	es := tidset.Universe(4)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		tid := tidset.Tid(r.Intn(4))
		// Random enabled-set churn, never a yield.
		esAfter := tidset.New(4)
		for j := 0; j < 4; j++ {
			if r.Intn(3) > 0 {
				esAfter.Add(tidset.Tid(j))
			}
		}
		f.OnStep(tid, false, es, esAfter)
		es = esAfter
		if len(f.Edges()) != 0 {
			t.Fatalf("step %d: P nonempty without yields: %v", i, f.Edges())
		}
	}
}

// TestDisabledThreadGetsEdge exercises case 2 of Theorem 1: a thread u
// disabled by t inside t's window (and never scheduled) lands in D(t)
// and receives a priority edge at t's next yield.
func TestDisabledThreadGetsEdge(t *testing.T) {
	f := NewFair(2, 1)
	both := tidset.Of(0, 1)
	only0 := tidset.Of(0)

	// Open thread 0's first window with an inert yield.
	f.OnStep(0, true, both, both)
	// Thread 0 disables thread 1 (e.g. takes a lock 1 is waiting on).
	f.OnStep(0, false, both, only0)
	if !f.WindowD(0).Contains(1) {
		t.Fatalf("D(0) missing disabled thread: %v", f.WindowD(0))
	}
	// Thread 1 re-enables (thread 0 released the lock)...
	f.OnStep(0, false, only0, both)
	// ...and thread 0 yields: H = (E ∪ D) \ S ∋ 1.
	f.OnStep(0, true, both, both)
	if !f.Priority(0, 1) {
		t.Fatalf("edge (0,1) missing: %v", f.Edges())
	}
	if got := f.Schedulable(both); !got.Equal(tidset.Of(1)) {
		t.Fatalf("Schedulable = %v, want {1}", got)
	}
}

// TestScheduledThreadNoEdge: a thread that *was* scheduled during the
// window is in S(t) and must not receive an edge.
func TestScheduledThreadNoEdge(t *testing.T) {
	f := NewFair(2, 1)
	both := tidset.Of(0, 1)
	f.OnStep(0, true, both, both) // open window
	f.OnStep(1, false, both, both)
	f.OnStep(0, false, both, both)
	f.OnStep(0, true, both, both) // close window; 1 ∈ S(0)
	if f.Priority(0, 1) {
		t.Fatalf("edge (0,1) added although 1 was scheduled: %v", f.Edges())
	}
}

// TestEdgeRemovedWhenSinkScheduled: line 13 removes all edges with
// sink t when t is scheduled.
func TestEdgeRemovedWhenSinkScheduled(t *testing.T) {
	f := NewFair(2, 1)
	both := tidset.Of(0, 1)
	f.OnStep(0, true, both, both)
	f.OnStep(0, false, both, both)
	f.OnStep(0, true, both, both) // adds (0,1)
	if !f.Priority(0, 1) {
		t.Fatal("setup failed: edge (0,1) missing")
	}
	f.OnStep(1, false, both, both)
	if f.Priority(0, 1) {
		t.Fatal("edge (0,1) survived scheduling of 1")
	}
}

// TestKParameterization: with k = 2 only every second yield closes a
// window, so the edge appears one yield later than with k = 1.
func TestKParameterization(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		f := NewFair(2, k)
		both := tidset.Of(0, 1)
		// Repeated starvation loop: thread 0 runs one non-yield step
		// then yields, never scheduling thread 1.
		yields := 0
		edgeAt := -1
		for i := 0; i < 12; i++ {
			f.OnStep(0, false, both, both)
			f.OnStep(0, true, both, both)
			yields++
			if edgeAt < 0 && f.Priority(0, 1) {
				edgeAt = yields
			}
			if f.Priority(0, 1) {
				break
			}
		}
		// With k=1: first yield inert, second adds the edge (yield 2).
		// With k=2: boundaries at yields 2 and 4; first boundary inert
		// (window started at init), edge at yield 4. Generally 2k.
		want := 2 * k
		if edgeAt != want {
			t.Errorf("k=%d: edge after %d yields, want %d", k, edgeAt, want)
		}
	}
}

func TestNewFairBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFair with k=0 did not panic")
		}
	}()
	NewFair(2, 0)
}

func TestAddThreadOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddThread out of order did not panic")
		}
	}()
	f := NewFair(1, 1)
	f.AddThread(5)
}

func TestOnStepUnknownThreadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OnStep for unknown thread did not panic")
		}
	}()
	f := NewFair(1, 1)
	f.OnStep(3, false, tidset.Of(0), tidset.Of(0))
}

// TestDynamicThreadCreation: window sets of existing threads absorb
// the new thread so that already-open windows stay inert for it.
func TestDynamicThreadCreation(t *testing.T) {
	f := NewFair(1, 1)
	one := tidset.Of(0)
	f.OnStep(0, true, one, one) // open thread 0's window
	f.AddThread(1)
	both := tidset.Of(0, 1)
	// Thread 0 yields; thread 1 was never scheduled and is not in
	// E(0) (E only shrinks), but it IS in S(0) and D(0) by the
	// creation convention, so H = ∅.
	f.OnStep(0, true, both, both)
	if len(f.Edges()) != 0 {
		t.Fatalf("creation convention violated: %v", f.Edges())
	}
	// But sustained starvation after creation still yields an edge.
	f.OnStep(0, false, both, both)
	f.OnStep(0, true, both, both)
	if !f.Priority(0, 1) {
		t.Fatalf("edge (0,1) missing after real starvation: %v", f.Edges())
	}
}

// TestContinuouslyEnabledBeyondOneWord: E(u) &= ES' is skipped on steps
// that take no thread out of the enabled set, so the steps that do must
// be noticed in whichever word of the row the thread sits — here thread
// 65, disabled for one step while every thread of the first word stays
// enabled.
func TestContinuouslyEnabledBeyondOneWord(t *testing.T) {
	f := NewFair(70, 1)
	all := tidset.Universe(70)
	without65 := all.Clone()
	without65.Remove(65)
	f.OnStep(0, true, all, all)        // thread 0's first yield opens its window
	f.OnStep(1, false, all, without65) // thread 1 disables 65 …
	f.OnStep(1, false, without65, all) // … and enables it again
	h, closed := f.OnStep(0, true, all, all)
	if !closed {
		t.Fatal("second yield of thread 0 did not close its window")
	}
	want := all.Clone() // everyone but 0 itself, the scheduled 1 and the interrupted 65
	for _, u := range []tidset.Tid{0, 1, 65} {
		want.Remove(u)
	}
	if !h.Equal(want) {
		t.Fatalf("H = %v, want %v", h, want)
	}
	if f.Priority(0, 65) || !f.Priority(0, 64) || !f.Priority(0, 69) {
		t.Fatalf("edges of thread 0 wrong around the word boundary: %v", f.Edges())
	}
}

// randomWalk drives a Fair instance through n random steps and reports
// whether the Theorem 3 invariants held throughout: P acyclic, and
// Schedulable(es) empty iff es empty.
func randomWalk(seed int64, nthreads, steps, k int) bool {
	if nthreads < 1 {
		nthreads = 1
	}
	if k < 1 {
		k = 1
	}
	f := NewFair(nthreads, k)
	r := rand.New(rand.NewSource(seed))
	es := tidset.Universe(nthreads)
	for i := 0; i < steps; i++ {
		tset := f.Schedulable(es)
		if tset.Empty() != es.Empty() {
			return false
		}
		if es.Empty() {
			// Re-enable a random nonempty subset and continue.
			es.Add(tidset.Tid(r.Intn(nthreads)))
			continue
		}
		// Choose a random schedulable thread.
		cands := tset.Slice()
		tid := cands[r.Intn(len(cands))]
		// Random post enabled-set; keep it arbitrary (threads may
		// block, unblock, or exit).
		esAfter := tidset.New(nthreads)
		for j := 0; j < nthreads; j++ {
			if r.Intn(4) > 0 {
				esAfter.Add(tidset.Tid(j))
			}
		}
		f.OnStep(tid, r.Intn(3) == 0, es, esAfter)
		es = esAfter
		if !f.Acyclic() {
			return false
		}
	}
	return true
}

// TestQuickTheorem3Invariant is a property-based test of Theorem 3: P
// stays acyclic under arbitrary schedules, and the schedulable set is
// empty only when the enabled set is.
func TestQuickTheorem3Invariant(t *testing.T) {
	prop := func(seed int64, nthreads, k uint8) bool {
		return randomWalk(seed, int(nthreads%8)+1, 300, int(k%3)+1)
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickNoSelfEdges: P is irreflexive under arbitrary schedules
// (a corollary used in the Theorem 3 proof).
func TestQuickNoSelfEdges(t *testing.T) {
	prop := func(seed int64) bool {
		f := NewFair(4, 1)
		r := rand.New(rand.NewSource(seed))
		es := tidset.Universe(4)
		for i := 0; i < 200; i++ {
			cands := f.Schedulable(es).Slice()
			if len(cands) == 0 {
				return false
			}
			tid := cands[r.Intn(len(cands))]
			f.OnStep(tid, r.Intn(2) == 0, es, es)
			for _, e := range f.Edges() {
				if e[0] == e[1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStarvationBoundedByTwoWindows mirrors Theorem 4 at the core
// level: a spinning thread that yields each iteration while another
// thread stays enabled is cut off by the priority relation after at
// most two full windows (two yields past the inert first one).
func TestStarvationBoundedByTwoWindows(t *testing.T) {
	f := NewFair(2, 1)
	both := tidset.Of(0, 1)
	spins := 0
	for {
		tset := f.Schedulable(both)
		if !tset.Contains(0) {
			break // spinner deprioritized
		}
		f.OnStep(0, false, both, both) // loop body
		f.OnStep(0, true, both, both)  // back-edge yield
		spins++
		if spins > 3 {
			t.Fatalf("spinner still schedulable after %d windows", spins)
		}
	}
	if spins != 2 {
		t.Fatalf("spinner ran %d windows before cutoff, want 2", spins)
	}
}

func TestStringSmoke(t *testing.T) {
	f := NewFair(2, 1)
	if f.String() == "" {
		t.Fatal("empty String()")
	}
	es := tidset.Of(0, 1)
	f.OnStep(0, true, es, es)
	f.OnStep(0, false, es, es)
	f.OnStep(0, true, es, es)
	if f.String() == "" {
		t.Fatal("empty String() after steps")
	}
}
