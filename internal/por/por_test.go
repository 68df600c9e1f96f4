package por_test

import (
	"hash/fnv"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/por"
	"fairmc/internal/search"
	"fairmc/internal/state"
	"fairmc/internal/syncmodel"
	"fairmc/internal/tidset"
	"fairmc/internal/wm"
)

func mv(tid int, kind string, obj int, aux int64) por.Move {
	return por.Move{
		Tid:  tidset.Tid(tid),
		Arg:  -1,
		Info: engine.OpInfo{Kind: kind, Obj: engine.ObjID(obj), Aux: aux},
	}
}

func TestIndependenceOracle(t *testing.T) {
	cases := []struct {
		name string
		a, b por.Move
		want bool
	}{
		{"same thread", mv(1, "load", 0, 0), mv(1, "store", 1, 0), false},
		{"different objects", mv(1, "store", 0, 0), mv(2, "store", 1, 0), true},
		{"same object writes", mv(1, "store", 0, 0), mv(2, "store", 0, 0), false},
		{"same object reads", mv(1, "load", 0, 0), mv(2, "load", 0, 0), true},
		{"read vs write same object", mv(1, "load", 0, 0), mv(2, "store", 0, 0), false},
		{"lock vs lock same mutex", mv(1, "lock", 3, 0), mv(2, "lock", 3, 0), false},
		{"lock vs unlock different mutex", mv(1, "lock", 3, 0), mv(2, "unlock", 4, 0), true},
		{"yield vs anything", mv(1, "yield", -1, 0), mv(2, "store", 0, 0), true},
		{"two yields", mv(1, "yield", -1, 0), mv(2, "sleep", -1, 1), true},
		{"spawn vs its child's op", mv(1, "spawn", -1, 3), mv(3, "load", 0, 0), false},
		{"spawn vs unrelated op", mv(1, "spawn", -1, 3), mv(2, "load", 0, 0), true},
		{"two lifecycle ops", mv(1, "spawn", -1, 3), mv(2, "join", -1, 4), false},
		{"join vs its target's op", mv(1, "join", -1, 2), mv(2, "yield", -1, 0), false},
		{"join vs unrelated op", mv(1, "join", -1, 2), mv(3, "store", 0, 0), true},
		{"start vs unrelated op", mv(3, "start", -1, 0), mv(2, "store", 0, 0), true},
		{"array disjoint elements", mv(1, "arr.set", 5, 0), mv(2, "arr.set", 5, 1), true},
		{"array same element", mv(1, "arr.set", 5, 0), mv(2, "arr.get", 5, 0), false},
	}
	for _, c := range cases {
		if got := por.Independent(c.a, c.b); got != c.want {
			t.Errorf("%s: Independent = %v, want %v", c.name, got, c.want)
		}
		// Independence is symmetric.
		if got := por.Independent(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): Independent = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestYieldWakesEverySleeper: stepping a sleep set across a yield (or a
// sleep) empties it, although the yield is independent of every entry;
// a step across an independent non-yield keeps them all.
func TestYieldWakesEverySleeper(t *testing.T) {
	asleep := []por.Move{mv(2, "store", 0, 0), mv(3, "lock", 3, 0)}
	for _, c := range []struct {
		step por.Move
		want int
	}{
		{mv(1, "yield", -1, 0), 0},
		{mv(1, "sleep", -1, 1), 0},
		{mv(1, "store", 1, 0), len(asleep)},
	} {
		var s por.Set
		for _, m := range asleep {
			if !por.Independent(c.step, m) {
				t.Fatalf("%s is dependent with %s: the case tests nothing", c.step.Info.Kind, m.Info.Kind)
			}
			s.Add(m)
		}
		s.Step(c.step)
		if s.Len() != c.want {
			t.Errorf("after a %s, %d moves asleep, want %d", c.step.Info.Kind, s.Len(), c.want)
		}
	}
}

// parallelWriters: n threads writing disjoint variables — maximal
// independence, so sleep sets collapse the n! orderings drastically.
func parallelWriters(n int) func(*engine.T) {
	return func(t *engine.T) {
		vars := make([]*syncmodel.IntVar, n)
		for i := range vars {
			vars[i] = syncmodel.NewIntVar(t, "v", 0)
		}
		wg := syncmodel.NewWaitGroup(t, "wg", int64(n))
		for i := 0; i < n; i++ {
			i := i
			t.Go("w", func(t *engine.T) {
				vars[i].Store(t, 1)
				vars[i].Store(t, 2)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}
}

// explore runs an unfair bounded DFS with or without sleep sets and
// returns the report plus state coverage.
func explore(t *testing.T, prog func(*engine.T), sleep bool) (*search.Report, *state.Coverage) {
	t.Helper()
	cov := state.NewCoverage()
	rep := search.Explore(prog, search.Options{
		Fair:         false,
		ContextBound: -1,
		MaxSteps:     10000,
		Monitor:      cov,
		SleepSets:    sleep,
	})
	if !rep.Exhausted {
		t.Fatalf("search not exhausted: %+v", rep)
	}
	return rep, cov
}

func TestSleepSetsPreserveStatesAndReduceExecutions(t *testing.T) {
	for _, n := range []int{2, 3} {
		prog := parallelWriters(n)
		plain, plainCov := explore(t, prog, false)
		slept, sleptCov := explore(t, prog, true)
		if plainCov.Count() != sleptCov.Count() {
			t.Fatalf("n=%d: state coverage differs: plain %d, sleep %d",
				n, plainCov.Count(), sleptCov.Count())
		}
		if slept.Executions >= plain.Executions {
			t.Fatalf("n=%d: sleep sets did not reduce executions: %d vs %d",
				n, slept.Executions, plain.Executions)
		}
		if slept.PrunedSleep == 0 {
			t.Fatalf("n=%d: no sleep pruning recorded", n)
		}
		t.Logf("n=%d: executions %d -> %d (%d sleep-pruned), states %d",
			n, plain.Executions, slept.Executions, slept.PrunedSleep, plainCov.Count())
	}
}

func TestSleepSetsPreserveBugDetection(t *testing.T) {
	racy := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		wg := syncmodel.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("inc", func(t *engine.T) {
				v := x.Load(t)
				x.Store(t, v+1)
				wg.Done(t)
			})
		}
		wg.Wait(t)
		t.Assert(x.Load(t) == 2, "lost update")
	}
	rep := search.Explore(racy, search.Options{
		Fair:         false,
		ContextBound: -1,
		MaxSteps:     10000,
		SleepSets:    true,
	})
	if rep.FirstBug == nil {
		t.Fatal("sleep-set search missed the lost-update bug")
	}
}

func TestSleepSetsPreserveDeadlockDetection(t *testing.T) {
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
		Fair:         false,
		ContextBound: -1,
		MaxSteps:     10000,
		SleepSets:    true,
	})
	if rep.FirstBug == nil || rep.FirstBug.Outcome != engine.Deadlock {
		t.Fatalf("sleep-set search missed the deadlock: %+v", rep)
	}
}

func TestSleepSetsWithLocksPreserveCoverage(t *testing.T) {
	// Dependent operations (same lock) mixed with independent ones.
	prog := func(t *engine.T) {
		m := syncmodel.NewMutex(t, "m")
		x := syncmodel.NewIntVar(t, "x", 0)
		y := syncmodel.NewIntVar(t, "y", 0)
		wg := syncmodel.NewWaitGroup(t, "wg", 2)
		t.Go("a", func(t *engine.T) {
			m.Lock(t)
			x.Add(t, 1)
			m.Unlock(t)
			wg.Done(t)
		})
		t.Go("b", func(t *engine.T) {
			m.Lock(t)
			y.Add(t, 1)
			m.Unlock(t)
			wg.Done(t)
		})
		wg.Wait(t)
	}
	plain, plainCov := explore(t, prog, false)
	slept, sleptCov := explore(t, prog, true)
	if plainCov.Count() != sleptCov.Count() {
		t.Fatalf("coverage differs: %d vs %d", plainCov.Count(), sleptCov.Count())
	}
	if slept.Executions > plain.Executions {
		t.Fatalf("sleep sets increased executions: %d vs %d", slept.Executions, plain.Executions)
	}
}

func TestSleepSetsWithFairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for SleepSets+Fair")
		}
	}()
	search.Explore(parallelWriters(2), search.Options{Fair: true, SleepSets: true})
}

// pinnedKinds is every op kind internal/engine, internal/syncmodel and
// internal/wm emit.
var pinnedKinds = []string{
	// internal/engine
	"start", "spawn", "join", "yield", "sleep", "choose",
	// internal/syncmodel
	"load", "store", "add", "cas", "swap", "arr.get", "arr.set", "any.load", "any.store",
	"lock", "trylock", "locktimeout", "unlock", "rlock", "runlock", "wlock", "wunlock",
	"chan.send", "chan.trysend", "chan.recv", "chan.tryrecv", "chan.close",
	"cond.wait", "cond.reacquire", "cond.signal", "cond.broadcast",
	"event.wait", "event.timeout", "event.set", "event.reset",
	"sem.acquire", "sem.release", "sem.try", "sem.timeout",
	"wg.add", "wg.wait", "once.begin", "once.complete", "barrier.arrive", "barrier.wait",
	// internal/wm
	"wm.read", "wm.write", "wm.buf", "wm.buf1", "wm.flush", "wm.fence", "wm.drain",
}

// TestIndependenceRelationPinned folds Independent over every ordered
// pair of a fixed move domain — every op kind, three threads, objects
// {-1, 0, 1}, aux {0, 1, 2} and wm.flush aux values with owner bits set
// — into one hash, pinned to the relation as it stood before the oracle
// classified moves. A change to the relation moves the hash; the test
// also checks that the relation is symmetric. The pinned relation is the
// older one made conservative where it was not: it called two flushes of
// different buffers independent in one order and dependent in the other
// when one flush's thread owned the other's buffer — a pair no program
// makes, since a flush agent owns no buffer — and it reads dependent.
func TestIndependenceRelationPinned(t *testing.T) {
	auxes, flushAux := []int64{0, 1, 2}, []int64{0, 1, 2}
	for owner := int64(1); owner < 3; owner++ {
		for hv := int64(0); hv < 3; hv++ {
			flushAux = append(flushAux, owner<<wm.AuxOwnerShift|hv)
		}
	}
	var dom []por.Move
	for _, k := range pinnedKinds {
		ax := auxes
		if k == "wm.flush" {
			ax = flushAux
		}
		for tid := 0; tid < 3; tid++ {
			for obj := -1; obj <= 1; obj++ {
				for _, a := range ax {
					dom = append(dom, mv(tid, k, obj, a))
				}
			}
		}
	}
	rel := make([]byte, 0, len(dom)*len(dom))
	for _, a := range dom {
		for _, b := range dom {
			ind := por.Independent(a, b)
			if ind != por.Independent(b, a) {
				t.Fatalf("Independent(thread %d %v, thread %d %v) = %v, but not swapped", a.Tid, a.Info, b.Tid, b.Info, ind)
			}
			rel = append(rel, b2u(ind))
		}
	}
	h := fnv.New64a()
	h.Write(rel)
	const want = 0xeb0160dc07682f03
	if got := h.Sum64(); got != want {
		t.Fatalf("independence relation over %d moves hashes to %#x, want %#x", len(dom), got, uint64(want))
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
