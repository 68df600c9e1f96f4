package core

import (
	"math/rand"
	"slices"
	"testing"

	"fairmc/internal/tidset"
)

// refFair is a deliberately naive transcription of Algorithm 1's
// pseudocode using map-based sets, for differential testing against
// the bitset implementation. Lines refer to the paper's listing.
type refFair struct {
	p map[[2]int]bool // (t, u) ∈ P
	e []map[int]bool
	d []map[int]bool
	s []map[int]bool
	n int
	// k-th-yield parameterization (§3): yields[t] counts t's yields and
	// only every k-th closes the window.
	k      int
	yields []int
	// EdgeStats' counts: edges line 13 deleted, and |H| summed over the
	// window closes (an edge already in P counts again).
	adds, erases int64
}

func newRefFair(n, k int) *refFair {
	r := &refFair{p: map[[2]int]bool{}, k: k}
	for i := 0; i < n; i++ {
		r.addThread()
	}
	return r
}

func (r *refFair) addThread() {
	// init.E(u) := {}; init.D(u) := Tid; init.S(u) := Tid — with the
	// dynamic-creation convention: the newcomer also joins every
	// existing thread's S and D.
	id := r.n
	r.n++
	for u := 0; u < id; u++ {
		r.s[u][id] = true
		r.d[u][id] = true
	}
	e, d, s := map[int]bool{}, map[int]bool{}, map[int]bool{}
	for v := 0; v <= id; v++ {
		d[v] = true
		s[v] = true
	}
	r.e = append(r.e, e)
	r.d = append(r.d, d)
	r.s = append(r.s, s)
	r.yields = append(r.yields, 0)
}

// schedulable computes T := ES \ pre(P, ES)   (line 7).
func (r *refFair) schedulable(es map[int]bool) map[int]bool {
	t := map[int]bool{}
	for x := range es {
		blocked := false
		for y := range es {
			if r.p[[2]int{x, y}] {
				blocked = true
				break
			}
		}
		if !blocked {
			t[x] = true
		}
	}
	return t
}

// onStep applies lines 13–29 for scheduled thread t and returns, when
// the step closes t's window, closed = true and the set H it added.
func (r *refFair) onStep(t int, wasYield bool, esBefore, esAfter map[int]bool) (h map[int]bool, closed bool) {
	// Line 13: next.P := curr.P \ (Tid × {t}).
	for edge := range r.p {
		if edge[1] == t {
			delete(r.p, edge)
			r.erases++
		}
	}
	// Lines 14–22.
	for u := 0; u < r.n; u++ {
		for v := range r.e[u] {
			if !esAfter[v] {
				delete(r.e[u], v)
			}
		}
		r.s[u][t] = true
	}
	for v := range esBefore {
		if !esAfter[v] {
			r.d[t][v] = true
		}
	}
	// Lines 23–29.
	if !wasYield {
		return nil, false
	}
	if r.yields[t]++; r.yields[t]%r.k != 0 {
		return nil, false
	}
	h = map[int]bool{}
	for v := 0; v < r.n; v++ {
		if (r.e[t][v] || r.d[t][v]) && !r.s[t][v] {
			r.p[[2]int{t, v}] = true
			h[v] = true
			r.adds++
		}
	}
	r.e[t] = map[int]bool{}
	for v := range esAfter {
		r.e[t][v] = true
	}
	r.d[t] = map[int]bool{}
	r.s[t] = map[int]bool{}
	return h, true
}

func setOf(m map[int]bool) tidset.Set {
	var s tidset.Set
	for v, ok := range m {
		if ok {
			s.Add(tidset.Tid(v))
		}
	}
	return s
}

// TestDifferentialAgainstReference drives the production Fair and the
// naive transcription with the same random schedules (including
// dynamic thread creation) and demands identical schedulable sets,
// priority edges, window sets, closing H and edge counts at every step
// (compareWithReference).
func TestDifferentialAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		differentialRun(t, seed, r, NewFair(n, 1), n, 1, 6, 25, 250, 6)
	}
}

// TestDifferentialWideAndRecycled covers what the row layout makes
// load-bearing and the run above never reaches: thread ids crossing the
// 64 and 128 boundaries mid-run, with edges and open windows in flight
// when the rows are re-strided; one Fair recycled through Reset from a
// wide run to a narrow one and back, the way a pooled engine does it
// (what the wide run left beyond the narrow run's rows must not leak
// into them); and k = 3.
func TestDifferentialWideAndRecycled(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Growing: 50 threads to 135, one more every sixth step or so.
		for _, k := range []int{1, 3} {
			differentialRun(t, seed, r, NewFair(50, k), 50, k, 135, 6, 700, 4)
		}
		// Recycled: narrow, wide, narrow, wide on the same storage.
		fair := NewFair(0, 1)
		for i, shape := range []struct{ n, maxN, k int }{{3, 5, 1}, {100, 135, 3}, {2, 6, 3}, {66, 70, 1}} {
			fair.Reset(shape.k)
			for u := 0; u < shape.n; u++ {
				fair.AddThread(tidset.Tid(u))
			}
			differentialRun(t, seed*10+int64(i), r, fair, shape.n, shape.k, shape.maxN, 10, 200, 4)
		}
	}
}

// TestDifferentialSmallK is the original narrow run under k = 3.
func TestDifferentialSmallK(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		differentialRun(t, seed, r, NewFair(n, 3), n, 3, 6, 25, 250, 6)
	}
}

// differentialRun walks fair, which holds n threads and nothing else,
// beside a fresh reference for steps steps, creating a thread one step
// in spawnEvery until there are maxN. Each step runs one of the focus
// lowest schedulable threads: among many threads a small focus makes
// the same few yield again and again, so edges appear early.
func differentialRun(t *testing.T, seed int64, r *rand.Rand, fair *Fair, n, k, maxN, spawnEvery, steps, focus int) {
	t.Helper()
	ref := newRefFair(n, k)
	es := map[int]bool{}
	for i := 0; i < n; i++ {
		es[i] = true
	}
	compareWithReference(t, seed, -1, fair, ref)

	for step := 0; step < steps; step++ {
		// Occasionally create a thread (exercises the dynamic
		// convention).
		if n < maxN && r.Intn(spawnEvery) == 0 {
			if n%64 == 0 && len(ref.p) == 0 {
				t.Fatalf("seed %d step %d: thread %d widens the rows with no edge in flight", seed, step, n)
			}
			fair.AddThread(tidset.Tid(n))
			ref.addThread()
			es[n] = true
			n++
		}
		wantT := ref.schedulable(es)
		gotT := fair.Schedulable(setOf(es))
		if !gotT.Equal(setOf(wantT)) {
			t.Fatalf("seed %d step %d: schedulable %v != reference %v\nimpl: %v",
				seed, step, gotT, setOf(wantT), fair)
		}
		if len(wantT) == 0 {
			// Everything disabled: re-enable someone and continue.
			es[r.Intn(n)] = true
			continue
		}
		// Choose a random schedulable thread.
		var cands []int
		for v := range wantT {
			cands = append(cands, v)
		}
		// Deterministic order for rand.
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j] < cands[j-1]; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		tid := cands[r.Intn(min(len(cands), focus))]
		wasYield := r.Intn(3) == 0
		esAfter := map[int]bool{}
		for v := 0; v < n; v++ {
			if r.Intn(4) > 0 {
				esAfter[v] = true
			}
		}
		wantH, wantClosed := ref.onStep(tid, wasYield, es, esAfter)
		gotH, gotClosed := fair.OnStep(tidset.Tid(tid), wasYield, setOf(es), setOf(esAfter))
		if gotClosed != wantClosed || !gotH.Equal(setOf(wantH)) {
			t.Fatalf("seed %d step %d: thread %d closed %v with H = %v, reference closed %v with %v",
				seed, step, tid, gotClosed, gotH, wantClosed, setOf(wantH))
		}
		es = esAfter
		compareWithReference(t, seed, step, fair, ref)
	}
}

// compareWithReference demands that fair and ref agree on everything
// the scheduler holds: the full priority relation, every thread's E, D
// and S — S read back through the transpose it is stored as — and the
// edge counters; and that the rows and columns of P fair marks as
// holding an edge (prows, pcols) are exactly the reference's.
func compareWithReference(t *testing.T, seed int64, step int, fair *Fair, ref *refFair) {
	t.Helper()
	rows, cols := make([]uint64, fair.w), make([]uint64, fair.w)
	for edge := range ref.p {
		rows[edge[0]/wordBits] |= 1 << (uint(edge[0]) % wordBits)
		cols[edge[1]/wordBits] |= 1 << (uint(edge[1]) % wordBits)
	}
	if !slices.Equal(fair.prows, rows) || !slices.Equal(fair.pcols, cols) {
		t.Fatalf("seed %d step %d: rows %x and columns %x of P marked, reference has %x and %x",
			seed, step, fair.prows, fair.pcols, rows, cols)
	}
	for x := 0; x < ref.n; x++ {
		for y := 0; y < ref.n; y++ {
			want := ref.p[[2]int{x, y}]
			got := fair.Priority(tidset.Tid(x), tidset.Tid(y))
			if want != got {
				t.Fatalf("seed %d step %d: edge (%d,%d) impl=%v ref=%v",
					seed, step, x, y, got, want)
			}
		}
		u := tidset.Tid(x)
		for _, w := range []struct {
			name      string
			got, want tidset.Set
		}{{"E", fair.WindowE(u), setOf(ref.e[x])}, {"D", fair.WindowD(u), setOf(ref.d[x])}, {"S", fair.WindowS(u), setOf(ref.s[x])}} {
			if !w.got.Equal(w.want) {
				t.Fatalf("seed %d step %d: %s(%d) = %v, reference %v", seed, step, w.name, x, w.got, w.want)
			}
		}
	}
	if adds, erases := fair.EdgeStats(); adds != ref.adds || erases != ref.erases {
		t.Fatalf("seed %d step %d: EdgeStats %d adds, %d erases; reference %d, %d",
			seed, step, adds, erases, ref.adds, ref.erases)
	}
}
