package search

import (
	"fmt"

	"fairmc/internal/engine"
)

// This file is the search-level half of the nondeterminism defense
// (see internal/engine/conformance.go for the digest machinery):
//
//   - Divergence quarantine: when a prefix replay stops conforming
//     (engine.Conform), the execution is re-run up to
//     Options.DivergenceRetries times (conformingRun; attempts are plain
//     deterministic re-runs — the per-execution seeding is reset
//     identically each time, so the attempt ordering itself is
//     deterministic) and then the subtree below the first divergent step
//     is quarantined: it is counted in Report.Quarantined with a
//     NondeterminismReport, and the search moves on instead of exploring
//     a wrong tree.
//
//   - Confirmation pass: after the search, each schedule-backed
//     finding (FirstBug, Divergence) is replayed Options.ConfirmRuns
//     times under a digest-verified ReplayChooser and tagged
//     with a Reproducibility verdict, so a flaky finding is reported
//     but clearly marked. Wedges are excluded: the wedged step is
//     deliberately absent from the schedule, so they cannot be
//     replayed at all.

// defaultDivergenceRetries is the number of replay retries before a
// divergent prefix is quarantined, when Options.DivergenceRetries is 0.
const defaultDivergenceRetries = 2

// divergenceRetries resolves Options.DivergenceRetries: 0 means the
// default, negative means no retries.
func (o *Options) divergenceRetries() int {
	switch {
	case o.DivergenceRetries < 0:
		return 0
	case o.DivergenceRetries == 0:
		return defaultDivergenceRetries
	default:
		return o.DivergenceRetries
	}
}

// conformingRun is the retry half of the quarantine protocol, shared by
// every execution that replays a recorded prefix (the searcher's and a
// DPOR unit's). attempt runs the execution once from a clean
// per-execution state and returns the step that did not conform, nil
// when the replay did. It is called until it conforms or the retries are
// used up; a non-nil result is the last attempt's divergence, which the
// caller quarantines, with the number of attempts made.
func (o *Options) conformingRun(attempt func() *engine.DivergenceError) (*engine.DivergenceError, int) {
	for n := 1; ; n++ {
		div := attempt()
		if div == nil {
			return nil, n
		}
		if m := o.Metrics; m != nil {
			m.ReplayDivergences.Inc()
		}
		if n > o.divergenceRetries() {
			return div, n
		}
	}
}

// NondeterminismReport describes one quarantined subtree: a schedule
// prefix the program stopped conforming to.
type NondeterminismReport struct {
	// Prefix is the schedule prefix being replayed when the divergence
	// was detected, up to and including the first divergent step.
	Prefix []engine.Alt `json:"prefix"`
	// Step is the 0-based index of the first divergent step.
	Step int `json:"step"`
	// Want is the alternative the prefix asked for at Step.
	Want engine.Alt `json:"want"`
	// Expected and Observed are the conformance digests at Step: what
	// was recorded when the prefix was explored vs. what the final
	// replay attempt reached.
	Expected engine.StepDigest `json:"expected"`
	Observed engine.StepDigest `json:"observed"`
	// NotSchedulable marks the harder failure: Want was not among the
	// candidates at all on the final attempt.
	NotSchedulable bool `json:"notSchedulable,omitempty"`
	// Attempts is how many times the prefix was replayed (the original
	// replay plus retries) before being quarantined.
	Attempts int `json:"attempts"`
}

// String renders the divergence as the one-line summary the CLI and
// logs print.
func (n *NondeterminismReport) String() string {
	kind := "digest mismatch"
	if n.NotSchedulable {
		kind = fmt.Sprintf("%s not schedulable", n.Want)
	}
	return fmt.Sprintf("prefix of %d steps diverged at step %d (%s; expected %s, observed %s) after %d attempts",
		len(n.Prefix), n.Step, kind, n.Expected, n.Observed, n.Attempts)
}

// Reproducibility is the confirmation verdict of one finding: how many
// of the ConfirmRuns replay attempts reproduced it.
type Reproducibility struct {
	// Runs is the number of confirmation replays attempted.
	Runs int `json:"runs"`
	// Successes is how many of them reproduced the finding (conforming
	// replay reaching the same outcome).
	Successes int `json:"successes"`
	// FirstFailure describes the first non-reproducing replay, empty
	// when all runs succeeded.
	FirstFailure string `json:"firstFailure,omitempty"`
}

// Stable reports that every confirmation replay reproduced the
// finding.
func (r *Reproducibility) Stable() bool {
	return r != nil && r.Runs > 0 && r.Successes == r.Runs
}

// String renders the verdict as "stable (n/n)" or "flaky (k/n)".
func (r *Reproducibility) String() string {
	if r.Stable() {
		return fmt.Sprintf("stable (%d/%d)", r.Successes, r.Runs)
	}
	return fmt.Sprintf("flaky (%d/%d)", r.Successes, r.Runs)
}

// reproduce re-runs r's schedule with trace and digest recording to
// produce a self-contained repro, unless r already carries a trace. A
// schedule the search itself just ran should replay; when it does not
// (non-conforming replay, or a different outcome) the program is
// nondeterministic under its own schedule — the original (traceless)
// result is kept and the confirmation pass will mark the finding flaky
// rather than crashing the search. Either way the returned Result is
// the report's to keep: r itself belongs to the engine pool that ran it
// (engine.Pool.Run), so where r is what is kept, a copy is.
func reproduce(prog func(*engine.T), opts *Options, r *engine.Result) *engine.Result {
	if len(r.Trace) > 0 {
		return r.Clone()
	}
	ch := &engine.ReplayChooser{Schedule: r.Schedule}
	cfg := opts.ReplayConfig()
	cfg.RecordTrace = true
	cfg.RecordDigests = true
	rr := engine.Run(prog, ch, cfg)
	if ch.Div != nil || rr.Outcome != r.Outcome {
		return r.Clone()
	}
	return rr
}

// confirmReport runs the post-search confirmation pass: every
// schedule-backed finding in rep is replayed ConfirmRuns times and
// tagged with its Reproducibility verdict.
func confirmReport(prog func(*engine.T), opts *Options, rep *Report) {
	n := opts.ConfirmRuns
	if n <= 0 {
		return
	}
	if rep.FirstBug != nil {
		rep.BugReproducibility = confirmResult(prog, opts, rep.FirstBug, n)
	}
	if rep.Divergence != nil {
		rep.DivergenceReproducibility = confirmResult(prog, opts, rep.Divergence, n)
	}
	// FirstWedge is deliberately unconfirmed: the wedged step is absent
	// from the schedule, so its replay reaches only the wedge-free
	// prefix and can neither confirm nor refute the wedge.
}

// confirmResult replays r's schedule n times under a digest-verified
// ReplayChooser. A run succeeds when the replay
// conforms end to end and reaches r's outcome.
func confirmResult(prog func(*engine.T), opts *Options, r *engine.Result, n int) *Reproducibility {
	rep := &Reproducibility{Runs: n}
	for i := 0; i < n; i++ {
		ch := &engine.ReplayChooser{Schedule: r.Schedule, Digests: r.Digests}
		rr := engine.Run(prog, ch, opts.ReplayConfig())
		var fail string
		switch {
		case ch.Div != nil:
			fail = ch.Div.Error()
		case rr.Outcome != r.Outcome:
			fail = fmt.Sprintf("replay reached outcome %s, finding was %s", rr.Outcome, r.Outcome)
		default:
			rep.Successes++
			continue
		}
		if rep.FirstFailure == "" {
			rep.FirstFailure = fmt.Sprintf("run %d/%d: %s", i+1, n, fail)
		}
	}
	return rep
}
