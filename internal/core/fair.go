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
// The state is recomputed deterministically during stateless replay.
// It is four bit matrices — P, E, D and S, one row per thread, one
// 64-bit word per row up to 64 threads — so a step costs words, not
// calls. S is stored by column, so S(u) |= {t} for every u is one row
// copy; pcols, the columns of P that hold an edge, lets line 13 skip
// the rows when column t has none. So OnStep is O(words) on a step that
// neither yields nor disables a thread, a yield gathers S(t) in O(n),
// and Schedulable bit-scans ES over the few rows of P that hold an edge.
package core

import (
	"fmt"
	"math/bits"
	"strings"

	"fairmc/internal/tidset"
)

const wordBits = 64

// Fair is the scheduler state threaded along one execution. The zero
// value is not usable; call NewFair. Fair is not safe for concurrent
// use; the engine runs strictly single-threaded.
type Fair struct {
	// p, e, d and s are the matrices of P, E, D and S: n rows of w words,
	// row t at [t*w, (t+1)*w), bit u of row t of p set iff (t, u) ∈ P (t
	// may run only when u is disabled); s is transposed, bit u of row x
	// set iff x ∈ S(u). No row holds a bit at or beyond n. The slices may
	// be longer than n*w: Reset keeps their storage so a pooled engine
	// re-registers threads allocation-free, and AddThread writes every
	// word of the row it hands out, so nothing left beyond n is read.
	p, e, d, s []uint64
	n, w       int

	// One row each, w words. universe is {0..n-1}. prows marks the
	// non-empty rows of p — an edge lives only from a window close to its
	// sink's next step, so usually few — which are all Schedulable has to
	// look at; pcols is the union of the rows of p, the columns that hold
	// an edge. after is ES' of the last OnStep within universe; every
	// E(u) is a subset of it.
	universe, prows, pcols, after []uint64

	hbuf tidset.Set // window-close H buffer, reused across OnStep calls

	// yieldSeen[t] counts yielding transitions of t, for the k-th
	// yield parameterization at the end of §3 of the paper: window
	// boundaries are processed only at every k-th yield.
	yieldSeen []int
	k         int

	// Priority-graph churn counters: edgeAdds counts insertions by
	// "P := P ∪ {t}×H" (lines 23–29), edgeErases removals by
	// "P := P \ (Tid × {t})" (line 13). Exposed via EdgeStats for the
	// observability layer; deterministic along a replayed execution.
	edgeAdds, edgeErases int64
}

// NewFair returns a fair scheduler state for an execution starting
// with nthreads threads (ids 0..nthreads-1). k selects the k-th-yield
// parameterization; k = 1 is Algorithm 1 exactly. k < 1 panics.
func NewFair(nthreads, k int) *Fair {
	// Room for a few threads up front: four matrices growing one row at
	// a time is most of what a fresh scheduler state allocates. The four
	// one-row vectors share one allocation until widen outgrows it.
	n := max(nthreads, 8)
	v := make([]uint64, 4)
	f := &Fair{
		p: make([]uint64, 0, n), e: make([]uint64, 0, n),
		d: make([]uint64, 0, n), s: make([]uint64, 0, n),
		universe: v[0:0:1], prows: v[1:1:2], pcols: v[2:2:3], after: v[3:3:4],
		yieldSeen: make([]int, 0, n),
	}
	f.Reset(k)
	for i := 0; i < nthreads; i++ {
		f.AddThread(tidset.Tid(i))
	}
	return f
}

// Reset returns f to the state NewFair(0, k) would produce, keeping
// all backing storage so a pooled engine can rebuild the scheduler
// state for its next execution without allocating. Rows are one word
// wide again, whatever the previous execution grew them to.
func (f *Fair) Reset(k int) {
	if k < 1 {
		panic(fmt.Sprintf("core: yield parameter k = %d, want >= 1", k))
	}
	f.k = k
	f.n, f.w = 0, 1
	f.universe = append(f.universe[:0], 0)
	f.prows = append(f.prows[:0], 0)
	f.pcols = append(f.pcols[:0], 0)
	f.after = append(f.after[:0], 0)
	f.yieldSeen = f.yieldSeen[:0]
	f.edgeAdds, f.edgeErases = 0, 0
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
	if f.n == f.w*wordBits {
		f.widen()
	}
	w, tw, bit := f.w, f.n/wordBits, uint64(1)<<(uint(f.n)%wordBits)
	f.universe[tw] |= bit
	// S(u) and D(u) gain t for every u, S(t) = D(t) = universe: symmetric.
	for i := tw; i < f.n*w; i += w {
		f.s[i] |= bit
		f.d[i] |= bit
	}
	base := f.n * w
	f.p, f.e = rows(f.p, base+w), rows(f.e, base+w)
	f.d, f.s = rows(f.d, base+w), rows(f.s, base+w)
	for i, u := range f.universe {
		f.p[base+i], f.e[base+i] = 0, 0
		f.d[base+i], f.s[base+i] = u, u
	}
	f.yieldSeen = append(f.yieldSeen, 0)
	f.n++
}

// rows returns m with room for need words, keeping what it holds.
func rows(m []uint64, need int) []uint64 {
	for len(m) < need {
		m = append(m, 0)
	}
	return m
}

// widen re-strides the matrices to one more word per row, in place:
// thread ids are about to cross a word boundary. Open windows and edges
// carry over; the new word of every row is empty.
func (f *Fair) widen() {
	w, nw := f.w, f.w+1
	for _, m := range []*[]uint64{&f.p, &f.e, &f.d, &f.s} {
		*m = rows(*m, f.n*nw)
		// High rows first: row u moves up, onto rows already moved.
		for u := f.n - 1; u >= 0; u-- {
			copy((*m)[u*nw:], (*m)[u*w:u*w+w])
			(*m)[u*nw+w] = 0
		}
	}
	f.universe = append(f.universe, 0)
	f.prows = append(f.prows, 0)
	f.pcols = append(f.pcols, 0)
	f.after = append(f.after, 0)
	f.w = nw
}

// Schedulable returns T = ES \ pre(P, ES): the enabled threads not
// priority-blocked by another enabled thread. By Theorem 3 the result
// is empty iff es is empty.
func (f *Fair) Schedulable(es tidset.Set) tidset.Set {
	return f.SchedulableInto(new(tidset.Set), es)
}

// SchedulableInto is Schedulable writing into dst's storage, for hot
// loops that compute T every step. Returns *dst for convenience.
func (f *Fair) SchedulableInto(dst *tidset.Set, es tidset.Set) tidset.Set {
	dst.CopyFrom(es)
	dw, w := dst.Words(), f.w
	ew := es.Words()[:min(w, len(dw))] // the words that can meet a row
	// Only a thread with an edge can be blocked: scan ES ∩ prows.
	for i, e := range ew {
		for m := e & f.prows[i]; m != 0; m &= m - 1 {
			if intersects(f.p[(i*wordBits+bits.TrailingZeros64(m))*w:], ew) {
				dw[i] &^= m & -m
			}
		}
	}
	return *dst
}

// intersects reports whether a row of P meets the set with words ew,
// which are no more than the row's.
func intersects(row, ew []uint64) bool {
	for i, e := range ew {
		if row[i]&e != 0 {
			return true
		}
	}
	return false
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
	w, tw, bit := f.w, int(t)/wordBits, uint64(1)<<(uint(t)%wordBits)
	base := int(t) * w
	// Lines 14–22, the part for row t: D(t) gains what this step disabled,
	// and S(u) |= {t} for every u is row t of the transpose becoming
	// everyone. Every E(u) is within the ES' of the step before, so E(u)
	// &= ES' has work to do only when this step took a thread out of it.
	after, shrunk := f.after, false
	aw, bw := esAfter.Words(), esBefore.Words()
	for i, u := range f.universe {
		a, b := word(aw, i)&u, word(bw, i)&u
		shrunk = shrunk || after[i]&^a != 0
		after[i] = a
		f.d[base+i] |= b &^ a
		f.s[base+i] = u
	}
	// Line 13, next.P := curr.P \ (Tid × {t}): drop the edges (u, t),
	// decreasing the relative priority of the just-scheduled thread. The
	// rows are visited only when column t holds one.
	if f.pcols[tw]&bit != 0 {
		f.pcols[tw] &^= bit
		for u, i, p := 0, tw, f.p[:f.n*w]; i < len(p); u, i = u+1, i+w {
			if p[i]&bit != 0 {
				p[i] &^= bit
				f.edgeErases++
				if !intersects(p[i-tw:], f.universe) { // the row is empty now
					f.prows[u/wordBits] &^= 1 << (uint(u) % wordBits)
				}
			}
		}
	}
	if shrunk {
		for r, e := 0, f.e[:f.n*w]; r < len(e); r += w {
			for i, a := range after {
				e[r+i] &= a
			}
		}
	}

	// Lines 23–29: close the window of t on a yielding transition.
	if !wasYield {
		return tidset.Set{}, false
	}
	f.yieldSeen[t]++
	if f.yieldSeen[t]%f.k != 0 {
		return tidset.Set{}, false // k-th yield parameterization: skip this boundary
	}
	// S(t), gathered into hbuf from column t, which the gather empties:
	// S(t) := ∅. t ∈ S(t) always holds here (line 21 added t), so H never
	// contains t and P stays irreflexive and acyclic (Theorem 3).
	f.hbuf.Reset(w * wordBits)
	hw := f.hbuf.Words()
	f.column(f.s, int(t), hw, true)
	adds := 0
	for j, st := range hw {
		hj := (f.e[base+j] | f.d[base+j]) &^ st
		hw[j] = hj
		adds += bits.OnesCount64(hj)
		f.p[base+j] |= hj
		f.pcols[j] |= hj
		f.e[base+j], f.d[base+j] = after[j], 0
	}
	if adds > 0 {
		f.prows[tw] |= bit
		f.edgeAdds += int64(adds)
	}
	return f.hbuf, true
}

// word is ws[i], or 0 past its end: enabled sets come as wide as their
// caller made them.
func word(ws []uint64, i int) uint64 {
	if i < len(ws) {
		return ws[i]
	}
	return 0
}

// EdgeStats returns the number of priority-edge insertions and
// removals performed so far along this execution.
func (f *Fair) EdgeStats() (adds, erases int64) { return f.edgeAdds, f.edgeErases }

// Priority reports whether the edge (t, u) is currently in P.
func (f *Fair) Priority(t, u tidset.Tid) bool {
	return int(t) < f.n && u >= 0 && int(u) < f.n &&
		f.p[int(t)*f.w+int(u)/wordBits]&(1<<(uint(u)%wordBits)) != 0
}

// Edges returns every edge of P in deterministic order.
func (f *Fair) Edges() [][2]tidset.Tid {
	var out [][2]tidset.Tid
	for t := 0; t < f.n; t++ {
		f.row(f.p, t).ForEach(func(u tidset.Tid) {
			out = append(out, [2]tidset.Tid{tidset.Tid(t), u})
		})
	}
	return out
}

// row returns a copy of row t of m as a set.
func (f *Fair) row(m []uint64, t int) tidset.Set {
	var s tidset.Set
	s.Reset(f.w * wordBits)
	copy(s.Words(), m[t*f.w:(t+1)*f.w])
	return s
}

// WindowE returns a copy of E(t) (threads continuously enabled since
// the last yield of t).
func (f *Fair) WindowE(t tidset.Tid) tidset.Set { return f.row(f.e, int(t)) }

// WindowD returns a copy of D(t) (threads disabled by t since its last
// yield).
func (f *Fair) WindowD(t tidset.Tid) tidset.Set { return f.row(f.d, int(t)) }

// WindowS returns a copy of S(t) (threads scheduled since the last
// yield of t), gathered from column t of S's transpose.
func (f *Fair) WindowS(t tidset.Tid) tidset.Set {
	var s tidset.Set
	s.Reset(f.w * wordBits)
	f.column(f.s, int(t), s.Words(), false)
	return s
}

// column ORs column t of m, {x : bit t of row x}, into the words dst,
// and empties the column when empty is set.
func (f *Fair) column(m []uint64, t int, dst []uint64, empty bool) {
	tw, tb := t/wordBits, uint(t)%wordBits
	for x, i := 0, tw; x < f.n; x, i = x+1, i+f.w {
		dst[x/wordBits] |= (m[i] >> tb & 1) << (uint(x) % wordBits)
		if empty {
			m[i] &^= 1 << tb
		}
	}
}

// Acyclic reports whether P, viewed as a directed graph, is acyclic.
// Theorem 3 proves this is an invariant; it is exported for tests and
// for the engine's internal self-checks.
func (f *Fair) Acyclic() bool {
	// Peel off, round after round, every thread with no edge to a thread
	// still standing: P is acyclic iff nobody is left.
	left := append([]uint64(nil), f.universe...)
	for peeled := true; peeled; {
		peeled = false
		for t := 0; t < f.n; t++ {
			if bit := uint64(1) << (uint(t) % wordBits); left[t/wordBits]&bit != 0 && !intersects(f.p[t*f.w:], left) {
				left[t/wordBits] &^= bit
				peeled = true
			}
		}
	}
	return !intersects(left, f.universe)
}

// String renders the priority relation and window sets for debugging.
func (f *Fair) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%v", f.Edges())
	for t := 0; t < f.n; t++ {
		fmt.Fprintf(&b, " S(%d)=%v D(%d)=%v E(%d)=%v", t, f.WindowS(tidset.Tid(t)), t, f.row(f.d, t), t, f.row(f.e, t))
	}
	return b.String()
}
