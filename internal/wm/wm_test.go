package wm_test

import (
	"testing"
	"time"

	"fairmc"
	"fairmc/conc"
	"fairmc/internal/core"
	"fairmc/internal/wm"
)

// These tests pin the store-buffer mechanics — forwarding, capacity
// stalls, fences — on a memory forced to TSO with NewWithModel, so they
// run under default search options; the searched-axis behaviour (SC vs
// -mm=tso verdicts, strategy coverage) is asserted on the progs
// fixtures in progs/weakmem_test.go. Buffers belong to the calling
// thread, as on real hardware.

// newTSO creates an nvars-cell TSO memory whose per-thread store
// buffers hold bufCap entries.
func newTSO(t *conc.T, nvars, bufCap int) *wm.Memory {
	return wm.NewWithModel(t, "m", nvars, core.MemTSO, bufCap)
}

func TestStoreLoadForwarding(t *testing.T) {
	// A thread always sees its own buffered stores (newest wins),
	// while the world sees global memory until the buffer flushes.
	prog := func(t *conc.T) {
		m := newTSO(t, 1, 4)
		m.Store(t, 0, 7)
		m.Store(t, 0, 9)
		t.Assert(m.Load(t, 0) == 9, "forwarding returns newest own store")
		// Global memory holds 0, 7 or 9 depending on flush progress —
		// but never anything else.
		v := m.Peek(0)
		t.Assert(v == 0 || v == 7 || v == 9, "the world sees a real value")
		m.Fence(t)
		t.Assert(m.Peek(0) == 9, "after fence the store is global")
		m.Drain(t)
	}
	res := mustCheck(t, prog, fairmc.Options{
		Fair: true, ContextBound: 1, MaxSteps: 10000, TimeLimit: 20 * time.Second,
	})
	if !res.Ok() {
		if res.FirstBug != nil {
			t.Fatalf("tso semantics: %s", res.FirstBug.FormatTrace())
		}
		t.Fatalf("divergence: %s", res.Liveness)
	}
}

// TestBufferStallCap1 exercises the degenerate capacity: every second
// store must stall until the flush agent drains the single slot, under
// a search that enumerates the stall/flush interleavings.
func TestBufferStallCap1(t *testing.T) {
	prog := func(t *conc.T) {
		m := newTSO(t, 1, 1)
		for i := int64(1); i <= 3; i++ {
			m.Store(t, 0, i)
		}
		m.Fence(t)
		t.Assert(m.Load(t, 0) == 3, "last store visible after drain")
		m.Drain(t)
	}
	res := mustCheck(t, prog, fairmc.Options{
		Fair: true, ContextBound: -1, MaxSteps: 10000, TimeLimit: 20 * time.Second,
	})
	if !res.Ok() {
		t.Fatalf("cap-1 stall: bug=%v divergence=%v", res.FirstBug, res.Divergence)
	}
	if !res.Exhausted {
		t.Fatalf("cap-1 search did not exhaust: %+v", res.Report)
	}
}

// TestBufferStallCapN overfills a capacity-N buffer from two threads at
// once: no store may be lost, storers must stall rather than deadlock
// or spin, and the final memory must reflect some store of each
// variable.
func TestBufferStallCapN(t *testing.T) {
	prog := func(t *conc.T) {
		m := newTSO(t, 2, 2)
		wg := conc.NewWaitGroup(t, "wg", 2)
		for c := 0; c < 2; c++ {
			c := c
			t.Go("storer", func(t *conc.T) {
				for i := int64(1); i <= 4; i++ {
					m.Store(t, c, i)
				}
				m.Fence(t)
				t.Assert(m.Load(t, c) == 4, "own stores land in order")
				wg.Done(t)
			})
		}
		wg.Wait(t)
		m.Drain(t)
		t.Assert(m.Load(t, 0) == 4 && m.Load(t, 1) == 4,
			"both threads' stores fully drained")
	}
	// The tree is far too large to exhaust; a fixed execution budget
	// (not the wall clock) keeps the covered part the same everywhere.
	res := mustCheck(t, prog, fairmc.Options{
		Fair: true, ContextBound: 1, MaxSteps: 20000, MaxExecutions: 20000,
	})
	if !res.Ok() {
		if res.FirstBug != nil {
			t.Fatalf("cap-N stall: %s", res.FirstBug.FormatTrace())
		}
		t.Fatalf("cap-N divergence: %s", res.Liveness)
	}
}

// TestFenceWaitIsNotDivergence pins the fence fix: a fence over a full
// buffer is a disabled transition (the engine schedules flushes until
// the buffer drains), not a spin loop, so it can never be classified
// as a livelock or good-samaritan violation.
func TestFenceWaitIsNotDivergence(t *testing.T) {
	prog := func(t *conc.T) {
		m := newTSO(t, 1, 8)
		for i := int64(1); i <= 8; i++ {
			m.Store(t, 0, i)
		}
		m.Fence(t) // eight pending flushes; the fence must just wait
		m.Drain(t)
	}
	res := mustCheck(t, prog, fairmc.Options{
		Fair: true, ContextBound: -1, MaxSteps: 200, TimeLimit: 20 * time.Second,
	})
	if res.Divergence != nil {
		t.Fatalf("fence wait misclassified as divergence: %s", res.Liveness)
	}
	if !res.Ok() || !res.Exhausted {
		t.Fatalf("fence program: %+v", res.Report)
	}
}

// mustCheck unwraps the facade's error return; the options in these
// tests are statically valid.
func mustCheck(t *testing.T, prog func(*conc.T), opts fairmc.Options) *fairmc.Result {
	t.Helper()
	res, err := fairmc.Check(prog, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}
