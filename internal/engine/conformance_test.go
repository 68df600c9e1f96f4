package engine_test

import (
	"errors"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/syncmodel"
)

// mutatingProg builds a program that closes over *val: the worker's
// store carries whatever the variable holds at run time, modelling a
// program that changes between record and replay (a re-deployed
// binary, hidden global state, an unseeded random).
func mutatingProg(val *int64) func(*engine.T) {
	return func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		done := syncmodel.NewIntVar(t, "done", 0)
		h := t.Go("worker", func(t *engine.T) {
			x.Store(t, *val)
			done.Store(t, 1)
		})
		for done.Load(t) == 0 {
			t.Yield()
		}
		h.Join(t)
	}
}

// TestStrictReplayDetectsMutation records a schedule with digests, then
// mutates the program and replays strictly: the replay must stop at the
// first divergent step with a structured DivergenceError and return the
// partial result, not explore a wrong execution to completion.
func TestStrictReplayDetectsMutation(t *testing.T) {
	val := int64(1)
	prog := mutatingProg(&val)
	cfg := engine.Config{Fair: true, MaxSteps: 1000, RecordDigests: true}

	r := engine.Run(prog, engine.RunToCompletionChooser{}, cfg)
	if r.Outcome != engine.Terminated {
		t.Fatalf("recording run outcome = %v", r.Outcome)
	}
	if len(r.Digests) != len(r.Schedule) {
		t.Fatalf("recorded %d digests for %d schedule steps", len(r.Digests), len(r.Schedule))
	}

	// Unmutated strict replay conforms end to end.
	ch := &engine.ReplayChooser{Schedule: r.Schedule, Digests: r.Digests}
	rr := engine.Run(prog, ch, cfg)
	if ch.Div != nil || rr.Outcome != r.Outcome {
		t.Fatalf("conforming replay failed: div=%v outcome=%v", ch.Div, rr.Outcome)
	}

	// Mutate and replay: the digest comparison must catch the change
	// even though the same threads stay schedulable.
	val = 2
	ch = &engine.ReplayChooser{Schedule: r.Schedule, Digests: r.Digests}
	rr = engine.Run(prog, ch, cfg)
	if ch.Div == nil {
		t.Fatalf("mutated replay not detected: outcome=%v", rr.Outcome)
	}
	div := ch.Div
	if div.Step < 0 || div.Step >= len(r.Schedule) {
		t.Fatalf("divergent step %d out of schedule range [0,%d)", div.Step, len(r.Schedule))
	}
	if div.Expected.Hash == div.Observed.Hash {
		t.Fatalf("divergence reports equal digests: %+v", div)
	}
	// The first divergent step is the first one where the worker's
	// pending store — the only thing that changed — is visible in the
	// candidate set: verify the pinpointing by checking that every
	// earlier digest still matched (the replay got exactly that far).
	if rr.Outcome != engine.Aborted {
		t.Fatalf("diverged replay outcome = %v, want aborted partial result", rr.Outcome)
	}
	if rr.Steps != int64(div.Step) {
		t.Fatalf("partial result has %d steps, divergence at step %d", rr.Steps, div.Step)
	}
	var divErr *engine.DivergenceError
	if !errors.As(error(div), &divErr) {
		t.Fatal("DivergenceError does not satisfy errors.As")
	}
	if div.Error() == "" || div.Expected.String() == "" {
		t.Fatal("empty diagnostics")
	}
}

// TestStrictReplayNotSchedulable: when the mutation removes the
// scheduled thread entirely, the divergence is flagged NotSchedulable.
// No digests are supplied here — schedule-only strict replay is the
// legacy mode — so this exercises the not-schedulable detection on its
// own (with digests, the candidate-set mismatch would fire first, at an
// earlier step).
func TestStrictReplayNotSchedulable(t *testing.T) {
	spawn := true
	prog := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		if spawn {
			h := t.Go("worker", func(t *engine.T) {
				x.Store(t, 1)
			})
			h.Join(t)
		}
		// Keep the main thread running past the branch so the replay is
		// still alive at the step that schedules the missing worker.
		x.Store(t, 9)
		x.Store(t, 10)
	}
	cfg := engine.Config{Fair: true, MaxSteps: 1000, RecordDigests: true}
	r := engine.Run(prog, engine.FirstChooser{}, cfg)
	if r.Outcome != engine.Terminated {
		t.Fatalf("recording run outcome = %v", r.Outcome)
	}

	spawn = false // the worker named by the schedule never exists
	ch := &engine.ReplayChooser{Schedule: r.Schedule}
	rr := engine.Run(prog, ch, cfg)
	if ch.Div == nil {
		t.Fatalf("missing-thread replay not detected: outcome=%v", rr.Outcome)
	}
	if !ch.Div.NotSchedulable {
		t.Fatalf("divergence not flagged NotSchedulable: %+v", ch.Div)
	}
}
