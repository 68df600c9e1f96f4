package search

import (
	"reflect"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/por"
	"fairmc/internal/syncmodel"
)

// TestOneVerifiedReplay drives the same corrupted replays through the
// four things that replay a recorded prefix — a ReplayChooser, a
// searcher pinned onto the prefix, a DPOR unit and a frontier expansion
// — and requires the same *engine.DivergenceError from each: they all
// ask engine.Conform, so none of them may see a different first
// divergent step, or describe it differently.
func TestOneVerifiedReplay(t *testing.T) {
	const (
		recorded  = iota // the worker's first op is a store
		blocked          // it waits on an event nobody sets: not schedulable
		changedOp        // it is an add: schedulable, but not what was recorded
	)
	mode := recorded
	prog := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		never := syncmodel.NewEvent(t, "never", true, false)
		h := t.Go("w", func(t *engine.T) {
			switch mode {
			case blocked:
				never.Wait(t)
			case changedOp:
				x.Add(t, 1)
			default:
				x.Store(t, 1)
			}
			x.Store(t, 2)
		})
		x.Store(t, 3)
		h.Join(t)
	}
	opts := Options{ContextBound: -1, MaxSteps: 1000}
	cfg := opts.ReplayConfig()
	cfg.RecordDigests = true
	// Record under "newest thread first", so the worker's first operation
	// is published and scheduled back to back: every step before it is
	// the same in all three modes.
	rec := engine.Run(prog, engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		return ctx.Cands[len(ctx.Cands)-1], true
	}), cfg)
	if rec.Outcome != engine.Terminated {
		t.Fatalf("recording run outcome = %v", rec.Outcome)
	}
	first := 1 // the step of the worker's first operation, right after its start step
	for rec.Schedule[first-1].Tid == 0 {
		first++
	}
	sched, digs := rec.Schedule, rec.Digests

	var pool engine.Pool
	defer pool.Close()
	replayers := []struct {
		name string
		run  func(digs []engine.StepDigest) *engine.DivergenceError
	}{
		{"replay", func(digs []engine.StepDigest) *engine.DivergenceError {
			ch := &engine.ReplayChooser{Schedule: sched, Digests: digs}
			pool.Run(prog, ch, opts.ReplayConfig())
			return ch.Div
		}},
		{"searcher", func(digs []engine.StepDigest) *engine.DivergenceError {
			s := newSearcher(prog, &opts, Shard{Prefix: &SavedPrefix{Sched: sched, Digs: digs}}, &pool, time.Time{})
			s.resetExec(1)
			pool.Run(prog, s, opts.engineConfig(time.Time{}, 1))
			return s.divErr
		}},
		{"unit", func(digs []engine.StepDigest) *engine.DivergenceError {
			c := new(unitChooser)
			c.reset(&opts, &por.Unit{Sched: sched, Digs: digs})
			pool.Run(prog, c, opts.engineConfig(time.Time{}, 1))
			return c.div
		}},
		{"expansion", func(digs []engine.StepDigest) *engine.DivergenceError {
			c := &expandChooser{opts: &opts, sched: sched, digs: digs}
			pool.Run(prog, c, opts.ReplayConfig())
			return c.div
		}},
	}

	cases := []struct {
		name string
		mode int
		digs []engine.StepDigest
		want *engine.DivergenceError // Observed is checked for agreement only
	}{
		{"conforming", recorded, digs, nil},
		{"not schedulable", blocked, digs,
			&engine.DivergenceError{Step: first, Want: sched[first], Expected: digs[first], NumCands: 1, NotSchedulable: true}},
		{"pending op changed", changedOp, digs,
			&engine.DivergenceError{Step: first, Want: sched[first], Expected: digs[first], NumCands: 2}},
		// A digest list that ends before the divergent step: the steps
		// past it are verified for schedulability only.
		{"short digests, not schedulable", blocked, digs[:first],
			&engine.DivergenceError{Step: first, Want: sched[first], NumCands: 1, NotSchedulable: true}},
		{"short digests, pending op changed", changedOp, digs[:first], nil},
	}
	for _, tc := range cases {
		mode = tc.mode
		var observed engine.StepDigest
		for i, rp := range replayers {
			got := rp.run(tc.digs)
			if got == nil || tc.want == nil {
				if got != tc.want {
					t.Errorf("%s / %s: divergence %+v, want %+v", tc.name, rp.name, got, tc.want)
				}
				continue
			}
			if i == 0 {
				observed = got.Observed
				if observed == tc.want.Expected || observed.Tid != tc.want.Want.Tid {
					t.Errorf("%s: observed digest %v does not describe a divergence of %v", tc.name, observed, tc.want.Want)
				}
			}
			want := *tc.want
			want.Observed = observed
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("%s / %s: divergence\n%+v\nwant\n%+v", tc.name, rp.name, *got, want)
			}
		}
	}
}
