package canon_test

import (
	"testing"

	"fairmc/internal/canon"
	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/internal/state"
	"fairmc/internal/syncmodel"
	"fairmc/internal/tidset"
)

// symmetricCreators is a program in which two spawned threads each
// create a mutex and lock it; the raw object ids and the lock owners
// depend on which thread ran first, so the "both workers parked after
// locking their own mutex" state fingerprints differently raw per
// schedule, but identically canonically.
func symmetricCreators(t *engine.T) {
	gate := syncmodel.NewIntVar(t, "gate", 0)
	for i := 0; i < 2; i++ {
		t.Go("worker", func(t *engine.T) {
			m := syncmodel.NewMutex(t, "mine")
			m.Lock(t)
			for gate.Load(t) == 0 {
				t.Yield()
			}
			m.Unlock(t)
		})
	}
	gate.Store(t, 1)
}

// runSchedule replays one prefix and returns raw and canonical
// fingerprints of the state it stops in.
func runSchedule(t *testing.T, prefix []engine.Alt) (raw, can engine.Fingerprint) {
	t.Helper()
	type capture struct {
		raw, can engine.Fingerprint
	}
	var c capture
	mon := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		c.raw = ctx.Engine.Fingerprint()
		c.can = canon.Fingerprint(ctx.Engine)
		return engine.Alt{}, false
	})
	_ = mon
	ch := &engine.ReplayChooser{Schedule: prefix}
	r := engine.Run(symmetricCreators, engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		a, ok := ch.Choose(ctx)
		if !ok {
			c.raw = ctx.Engine.Fingerprint()
			c.can = canon.Fingerprint(ctx.Engine)
			return engine.Alt{}, false
		}
		return a, ok
	}), engine.Config{Fair: false, MaxSteps: 1000})
	if r.Outcome != engine.Aborted {
		t.Fatalf("prefix run outcome = %v", r.Outcome)
	}
	return c.raw, c.can
}

func alt(tid int) engine.Alt { return engine.Alt{Tid: tidset.Tid(tid), Arg: -1} }

func TestCanonicalFingerprintMergesSymmetricStates(t *testing.T) {
	// Schedule A: main spawns both, worker 1 creates+locks, then
	// worker 2 creates+locks. Schedule B: worker 2 first, then
	// worker 1. In both final states each worker holds "its" mutex
	// and is about to load the gate.
	schedA := []engine.Alt{
		alt(0), alt(0), alt(0), // main: start, spawn, spawn
		alt(1), alt(1), // w1: start(create mutex)+lock published... lock, load
		alt(2), alt(2),
	}
	schedB := []engine.Alt{
		alt(0), alt(0), alt(0),
		alt(2), alt(2),
		alt(1), alt(1),
	}
	rawA, canA := runSchedule(t, schedA)
	rawB, canB := runSchedule(t, schedB)
	if rawA == rawB {
		t.Log("note: raw fingerprints already equal (object order coincided)")
	}
	if canA != canB {
		t.Fatalf("canonical fingerprints differ for symmetric states:\nA=%+v\nB=%+v", canA, canB)
	}
}

func TestCanonicalMatchesRawForMainOnlyCreation(t *testing.T) {
	// For programs whose objects and threads are all created by main,
	// canonical and raw coverage must agree exactly.
	prog := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		m := syncmodel.NewMutex(t, "m")
		wg := syncmodel.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("w", func(t *engine.T) {
				m.Lock(t)
				x.Add(t, 1)
				m.Unlock(t)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}
	rawCov := state.NewCoverage()
	canCov := canon.NewCoverage()
	rep := search.Explore(prog, search.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     10000,
		Monitor:      engine.MultiMonitor{rawCov, canCov},
	})
	if !rep.Exhausted {
		t.Fatalf("search not exhausted: %+v", rep)
	}
	if rawCov.Count() != canCov.Count() {
		t.Fatalf("raw %d states, canonical %d states", rawCov.Count(), canCov.Count())
	}
}

func TestCanonicalNeverSplitsStates(t *testing.T) {
	// Canonicalization may only merge states, never split them: on any
	// program the canonical count is <= the raw count.
	canCov := canon.NewCoverage()
	rawCov := state.NewCoverage()
	rep := search.Explore(symmetricCreators, search.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     10000,
		Monitor:      engine.MultiMonitor{rawCov, canCov},
	})
	if !rep.Exhausted {
		t.Fatalf("search not exhausted: %+v", rep)
	}
	if canCov.Count() > rawCov.Count() {
		t.Fatalf("canonical %d > raw %d", canCov.Count(), rawCov.Count())
	}
	if canCov.Count() >= rawCov.Count() {
		t.Fatalf("expected canonicalization to merge symmetric states: canonical %d, raw %d",
			canCov.Count(), rawCov.Count())
	}
}
