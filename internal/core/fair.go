// Package core implements the fair demonic scheduler of Musuvathi &
// Qadeer, "Fair Stateless Model Checking" (PLDI 2008), Algorithm 1.
//
// The scheduler maintains, along the execution being explored:
//
//   - a priority relation P ⊆ Tid × Tid: if (t, u) ∈ P then t may be
//     scheduled in a state only when u is disabled in that state;
//   - for every thread t, three window sets describing the execution
//     since the last yield of t:
//     S(t) — threads scheduled since the last yield of t,
//     E(t) — threads continuously enabled since the last yield of t,
//     D(t) — threads disabled by a transition of t since the last yield.
//
// At every scheduling point the set of schedulable threads is
//
//	T = ES \ pre(P, ES),  pre(P, X) = {x | ∃y. (x,y) ∈ P ∧ y ∈ X}
//
// and when a thread t takes a yielding transition, the algorithm adds
// the edges {t} × H with H = (E(t) ∪ D(t)) \ S(t), deprioritizing the
// yielder below every thread it starved or disabled during the window.
//
// The implementation preserves the paper's theorems:
//
//	Thm 1: every infinite execution generated satisfies GS ⇒ SF.
//	Thm 3: P stays acyclic, so T = ∅ iff ES = ∅ (no false deadlocks).
//	Thm 4: an unfair cycle is unrolled at most twice.
//	Thm 5: all yield-free executions survive (P empty without yields).
//
// The state is recomputed deterministically during stateless replay;
// it is cheap: a handful of bitset operations per step.
package core

import (
	"fmt"
	"sort"
	"strings"

	"fairmc/internal/tidset"
)

// Fair is the scheduler state threaded along one execution. The zero
// value is not usable; call NewFair. Fair is not safe for concurrent
// use; the engine runs strictly single-threaded.
type Fair struct {
	// p[t] is the successor set of t in P: u ∈ p[t] iff (t, u) ∈ P,
	// meaning t may run only when u is disabled.
	p []tidset.Set
	e []tidset.Set // E(t)
	d []tidset.Set // D(t)
	s []tidset.Set // S(t)

	// n is the number of registered threads. The slices above may be
	// longer: Reset keeps their storage (and each element's bitset
	// storage) so a pooled engine re-registers threads allocation-free,
	// and AddThread re-initializes slots below len in place.
	n int

	scratch tidset.Set // per-step temporary, reused across OnStep calls
	hbuf    tidset.Set // window-close H buffer, reused across OnStep calls

	// yieldSeen[t] counts yielding transitions of t, for the k-th
	// yield parameterization at the end of §3 of the paper: window
	// boundaries are processed only at every k-th yield.
	yieldSeen []int
	k         int

	universe tidset.Set // all thread ids ever created

	// Priority-graph churn counters: edgeAdds counts insertions by
	// "P := P ∪ {t}×H" (lines 23–29), edgeErases removals by
	// "P := P \ (Tid × {t})" (line 13). Exposed via EdgeStats for the
	// observability layer; deterministic along a replayed execution.
	edgeAdds   int64
	edgeErases int64
}

// NewFair returns a fair scheduler state for an execution starting
// with nthreads threads (ids 0..nthreads-1). k selects the k-th-yield
// parameterization; k = 1 is Algorithm 1 exactly. k < 1 panics.
func NewFair(nthreads, k int) *Fair {
	if k < 1 {
		panic(fmt.Sprintf("core: yield parameter k = %d, want >= 1", k))
	}
	// Room for a few threads up front: five slices growing one thread at
	// a time is most of what a fresh scheduler state allocates.
	n := max(nthreads, 8)
	f := &Fair{k: k,
		p: make([]tidset.Set, 0, n), e: make([]tidset.Set, 0, n),
		d: make([]tidset.Set, 0, n), s: make([]tidset.Set, 0, n),
		yieldSeen: make([]int, 0, n),
	}
	for i := 0; i < nthreads; i++ {
		f.AddThread(tidset.Tid(i))
	}
	return f
}

// AddThread registers a new thread t. Per the paper's initialization
// convention (init.E(u) = ∅, init.D(u) = Tid, init.S(u) = Tid), the
// window sets are seeded so that the first yield of t adds no edges:
// the first window of a thread begins only after its first yield.
//
// Dynamic thread creation extends the paper's fixed-Tid model: the new
// thread is also inserted into S(u) and D(u) of every existing thread
// u, which keeps the "first window is inert" property for windows that
// were already open when t was created. This weakens, never
// strengthens, the edges added at the enclosing yields, so the
// fairness guarantee (Theorem 1) and the no-false-deadlock guarantee
// (Theorem 3) are preserved.
func (f *Fair) AddThread(t tidset.Tid) {
	if int(t) != f.n {
		panic(fmt.Sprintf("core: AddThread(%d), want next id %d", t, f.n))
	}
	f.universe.Add(t)
	for u := 0; u < f.n; u++ {
		f.s[u].Add(t)
		f.d[u].Add(t)
	}
	if f.n < len(f.p) {
		// Reuse the storage a Reset retained for this slot.
		f.p[f.n].Clear()
		f.e[f.n].Clear()
		f.d[f.n].CopyFrom(f.universe)
		f.s[f.n].CopyFrom(f.universe)
		f.yieldSeen[f.n] = 0
	} else {
		f.p = append(f.p, tidset.Set{})
		f.e = append(f.e, tidset.Set{})
		f.d = append(f.d, f.universe.Clone())
		f.s = append(f.s, f.universe.Clone())
		f.yieldSeen = append(f.yieldSeen, 0)
	}
	f.n++
}

// Reset returns f to the state NewFair(0, k) would produce, keeping
// all backing storage so a pooled engine can rebuild the scheduler
// state for its next execution without allocating.
func (f *Fair) Reset(k int) {
	if k < 1 {
		panic(fmt.Sprintf("core: yield parameter k = %d, want >= 1", k))
	}
	f.k = k
	f.n = 0
	f.universe.Clear()
	f.edgeAdds = 0
	f.edgeErases = 0
}

// NumThreads returns the number of threads registered so far.
func (f *Fair) NumThreads() int { return f.n }

// Schedulable returns T = ES \ pre(P, ES): the enabled threads not
// priority-blocked by another enabled thread. By Theorem 3 the result
// is empty iff es is empty.
func (f *Fair) Schedulable(es tidset.Set) tidset.Set {
	var t tidset.Set
	f.SchedulableInto(&t, es)
	return t
}

// SchedulableInto is Schedulable writing into dst's storage, for hot
// loops that compute T every step. Returns *dst for convenience.
func (f *Fair) SchedulableInto(dst *tidset.Set, es tidset.Set) tidset.Set {
	dst.CopyFrom(es)
	es.ForEach(func(x tidset.Tid) {
		if int(x) < f.n && f.p[x].Intersects(es) {
			dst.Remove(x)
		}
	})
	return *dst
}

// Blocked reports whether thread t, although enabled, is excluded from
// scheduling by a priority edge to a currently enabled thread. The
// context-bounded search uses this to avoid counting fairness-forced
// context switches as preemptions (paper §4).
func (f *Fair) Blocked(t tidset.Tid, es tidset.Set) bool {
	return int(t) < f.n && f.p[t].Intersects(es)
}

// OnStep applies one iteration of Algorithm 1's update (lines 13–29)
// after thread t executed a transition. wasYield must be the value of
// yield(t) in the pre-state (the transition just executed was a
// yielding one); esBefore and esAfter are the enabled sets of the pre-
// and post-state.
//
// When the transition closes t's yield window (its k-th yield), OnStep
// returns closed = true and h = (E(t) ∪ D(t)) \ S(t), the edge set just
// added as {t}×H. Otherwise closed is false and h is the empty set.
// Callers that only drive the scheduler may ignore both results.
//
// The returned h aliases a buffer owned by f and is valid only until
// the next OnStep (or Reset) call; callers that retain it must copy.
func (f *Fair) OnStep(t tidset.Tid, wasYield bool, esBefore, esAfter tidset.Set) (h tidset.Set, closed bool) {
	if int(t) >= f.n {
		panic(fmt.Sprintf("core: OnStep for unknown thread %d", t))
	}
	// Line 13: next.P := curr.P \ (Tid × {t}) — drop edges with sink t,
	// decreasing the relative priority of the just-scheduled thread.
	for u := 0; u < f.n; u++ {
		if f.p[u].Contains(t) {
			f.p[u].Remove(t)
			f.edgeErases++
		}
	}
	// Lines 14–22: window bookkeeping.
	f.scratch.CopyFrom(esBefore)
	f.scratch.MinusWith(esAfter)
	disabledNow := f.scratch
	for u := 0; u < f.n; u++ {
		f.e[u].IntersectWith(esAfter)
		f.s[u].Add(t)
	}
	f.d[t].UnionWith(disabledNow)

	// Lines 23–29: close the window of t on a yielding transition.
	if !wasYield {
		return tidset.Set{}, false
	}
	f.yieldSeen[t]++
	if f.yieldSeen[t]%f.k != 0 {
		return tidset.Set{}, false // k-th yield parameterization: skip this boundary
	}
	f.hbuf.CopyFrom(f.e[t])
	f.hbuf.UnionWith(f.d[t])
	f.hbuf.MinusWith(f.s[t])
	h = f.hbuf
	// t ∈ S(t) always holds here (line 21 added t), so H never
	// contains t and P stays irreflexive and acyclic (Theorem 3).
	f.p[t].UnionWith(h)
	f.edgeAdds += int64(h.Len())
	// In-place resets keep each slot's bitset storage across windows
	// (and, through Reset, across pooled executions).
	f.e[t].CopyFrom(esAfter)
	f.d[t].Clear()
	f.s[t].Clear()
	return h, true
}

// EdgeStats returns the number of priority-edge insertions and
// removals performed so far along this execution.
func (f *Fair) EdgeStats() (adds, erases int64) { return f.edgeAdds, f.edgeErases }

// Priority reports whether the edge (t, u) is currently in P.
func (f *Fair) Priority(t, u tidset.Tid) bool {
	return int(t) < f.n && f.p[t].Contains(u)
}

// PrioritySuccessors returns a copy of {u | (t, u) ∈ P}.
func (f *Fair) PrioritySuccessors(t tidset.Tid) tidset.Set {
	if int(t) >= f.n {
		return tidset.Set{}
	}
	return f.p[t].Clone()
}

// Edges returns every edge of P in deterministic order.
func (f *Fair) Edges() [][2]tidset.Tid {
	var out [][2]tidset.Tid
	for t := 0; t < f.n; t++ {
		f.p[t].ForEach(func(u tidset.Tid) {
			out = append(out, [2]tidset.Tid{tidset.Tid(t), u})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// WindowE returns a copy of E(t) (threads continuously enabled since
// the last yield of t).
func (f *Fair) WindowE(t tidset.Tid) tidset.Set { return f.e[t].Clone() }

// WindowD returns a copy of D(t) (threads disabled by t since its last
// yield).
func (f *Fair) WindowD(t tidset.Tid) tidset.Set { return f.d[t].Clone() }

// WindowS returns a copy of S(t) (threads scheduled since the last
// yield of t).
func (f *Fair) WindowS(t tidset.Tid) tidset.Set { return f.s[t].Clone() }

// YieldCount returns the number of yielding transitions taken by t.
func (f *Fair) YieldCount(t tidset.Tid) int { return f.yieldSeen[t] }

// Acyclic reports whether P, viewed as a directed graph, is acyclic.
// Theorem 3 proves this is an invariant; it is exported for tests and
// for the engine's internal self-checks.
func (f *Fair) Acyclic() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, f.n)
	var visit func(int) bool
	visit = func(v int) bool {
		color[v] = grey
		ok := true
		f.p[v].ForEach(func(u tidset.Tid) {
			switch color[u] {
			case grey:
				ok = false
			case white:
				if !visit(int(u)) {
					ok = false
				}
			}
		})
		color[v] = black
		return ok
	}
	for v := 0; v < f.n; v++ {
		if color[v] == white && !visit(v) {
			return false
		}
	}
	return true
}

// String renders the priority relation and window sets for debugging.
func (f *Fair) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%v", f.Edges())
	for t := 0; t < f.n; t++ {
		fmt.Fprintf(&b, " S(%d)=%v D(%d)=%v E(%d)=%v", t, f.s[t], t, f.d[t], t, f.e[t])
	}
	return b.String()
}
