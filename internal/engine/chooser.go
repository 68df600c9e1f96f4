package engine

import "fairmc/internal/tidset"

// FirstChooser always picks the first candidate: the lowest thread id
// with the lowest choice value. Useful as a default continuation
// policy and in tests.
type FirstChooser struct{}

// Choose implements Chooser.
func (FirstChooser) Choose(ctx *ChooseContext) (Alt, bool) {
	return ctx.Cands[0], true
}

// RunToCompletionChooser keeps running the previously scheduled thread
// for as long as it is a candidate, otherwise switches to the first
// candidate. This emulates a non-preemptive scheduler and is the
// cheapest way to obtain one representative execution.
type RunToCompletionChooser struct{}

// Choose implements Chooser.
func (RunToCompletionChooser) Choose(ctx *ChooseContext) (Alt, bool) {
	if ctx.PrevTid != tidset.None {
		for _, a := range ctx.Cands {
			if a.Tid == ctx.PrevTid {
				return a, true
			}
		}
	}
	return ctx.Cands[0], true
}

// ReplayChooser replays a recorded schedule and aborts the execution
// when it runs out. Replay is the foundation of stateless search: an
// execution is identified by its schedule and can be reproduced at will.
// Every step is verified (Engine.Conform): a scheduled alternative that
// is not among the candidates — a corrupted or truncated schedule, one
// recorded for a different program or configuration, or a program that
// is nondeterministic under its own schedule — aborts the execution and
// is recorded in Div.
type ReplayChooser struct {
	Schedule []Alt
	// Digests, when non-empty, are the per-step conformance digests
	// recorded when the schedule was explored (Config.RecordDigests);
	// each replayed step they cover is verified against them too. This
	// catches nondeterminism that still happens to keep the scheduled
	// alternative schedulable.
	Digests []StepDigest
	// Div is the structured diagnostic of the first step that did not
	// conform; callers check it after Run.
	Div *DivergenceError
	pos int
}

// Choose implements Chooser.
func (r *ReplayChooser) Choose(ctx *ChooseContext) (Alt, bool) {
	if r.pos == len(r.Schedule) {
		return Alt{}, false
	}
	step, want := r.pos, r.Schedule[r.pos]
	r.pos++
	var exp *StepDigest
	if step < len(r.Digests) {
		exp = &r.Digests[step]
	}
	if r.Div = ctx.Engine.Conform(step, ctx.Cands, want, exp); r.Div != nil {
		return Alt{}, false
	}
	return want, true
}

// FuncChooser adapts a function to the Chooser interface.
type FuncChooser func(ctx *ChooseContext) (Alt, bool)

// Choose implements Chooser.
func (f FuncChooser) Choose(ctx *ChooseContext) (Alt, bool) { return f(ctx) }
