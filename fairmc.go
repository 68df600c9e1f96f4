// Package fairmc is a fair stateless model checker for multithreaded
// model programs, reproducing Musuvathi & Qadeer, "Fair Stateless
// Model Checking" (PLDI 2008) — the fairness algorithm of the CHESS
// model checker.
//
// A stateless model checker runs a concurrent test over and over,
// steering the thread schedule so that every run takes a different
// interleaving, without ever capturing program states. Plain stateless
// search cannot handle nonterminating programs: unrolling the cycles
// in the state space swamps the search, and livelocks are invisible.
// fairmc explores instead with a *fair demonic scheduler* (Algorithm 1
// of the paper): threads that yield while others are starved lose
// priority, so unfair cycles are pruned after at most two unrollings,
// while every yield-free execution — and therefore every state
// reachable without yields — is still explored.
//
// # Writing a model program
//
// Programs are written against the conc package:
//
//	func prog(t *conc.T) {
//		x := conc.NewIntVar(t, "x", 0)
//		h := t.Go("worker", func(t *conc.T) { x.Store(t, 1) })
//		for x.Load(t) != 1 { // spin…
//			t.Yield() // …but be a good samaritan
//		}
//		h.Join(t)
//	}
//
// # Checking
//
//	res, err := fairmc.Check(prog, fairmc.Defaults())
//	switch {
//	case res.FirstBug != nil:        // safety violation or deadlock
//	case res.Liveness != nil:        // livelock or GS violation
//	}
//
// The four outcomes of the paper's semi-algorithm map to the result
// as: (1) safety violation -> FirstBug; (2) good-samaritan violation
// and (3) fair nontermination -> Divergence plus the Liveness
// classification; (4) clean termination -> Exhausted with no findings.
package fairmc

import (
	"fmt"
	"io"

	"fairmc/conc"
	"fairmc/internal/core"
	"fairmc/internal/engine"
	"fairmc/internal/liveness"
	"fairmc/internal/obs"
	"fairmc/internal/race"
	"fairmc/internal/search"
)

// Options configures a check; see the field documentation in
// internal/search. Use Defaults as a starting point.
type Options = search.Options

// Report is the summary statistics of a search.
type Report = search.Report

// ExecResult is the result of one execution, including its schedule
// and (for repro runs) a full trace.
type ExecResult = engine.Result

// Alt is one scheduling decision; a schedule ([]Alt) identifies an
// execution and is the unit of replay.
type Alt = engine.Alt

// DivergenceError is the structured diagnostic of a replay that stopped
// conforming: the schedule is not this program's (corrupted, truncated,
// recorded elsewhere — NotSchedulable when a step could not be taken at
// all), or the program stopped being a deterministic function of the
// schedule (wall-clock reads, unseeded randomness, goroutines outside
// the conc API…). It pinpoints the first divergent step with the
// expected and observed operations; match it with errors.As.
type DivergenceError = engine.DivergenceError

// StepDigest is the per-step conformance summary recorded by replays
// and verified by strict re-replays (see DivergenceError).
type StepDigest = engine.StepDigest

// NondeterminismReport describes one subtree the search quarantined
// after its schedule prefix persistently stopped conforming; see
// Report.Quarantined and Report.Nondeterminism.
type NondeterminismReport = search.NondeterminismReport

// Reproducibility is the confirmation verdict attached to a finding
// when Options.ConfirmRuns > 0: stable (every confirmation replay
// reproduced it) or flaky (k of n).
type Reproducibility = search.Reproducibility

// LivenessReport classifies a divergence as a good-samaritan
// violation or a fair nontermination (livelock).
type LivenessReport = liveness.Report

// Outcome values of an individual execution.
const (
	Terminated = engine.Terminated
	Deadlock   = engine.Deadlock
	Violation  = engine.Violation
	Diverged   = engine.Diverged
	Aborted    = engine.Aborted
	Wedged     = engine.Wedged
)

// WorkerFailure is one recovered parallel-worker crash, reported in
// Report.WorkerFailures.
type WorkerFailure = search.WorkerFailure

// Kind values of a liveness classification.
const (
	GoodSamaritanViolation = liveness.GoodSamaritanViolation
	FairNontermination     = liveness.FairNontermination
)

// Defaults returns the recommended options: fair scheduling, full DFS
// (no preemption bound), a generous per-execution step bound that
// serves as the divergence detector, and a 3-run confirmation pass so
// every reported finding carries a Reproducibility verdict.
func Defaults() Options {
	return Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     100000,
		ConfirmRuns:  3,
	}
}

// Race is one unsynchronized access pair found by the happens-before
// detector.
type Race = race.Race

// Metrics is the live telemetry registry of the observability layer
// (internal/obs): attach one via Options.Metrics and read Snapshot from
// any goroutine while the check runs. Metrics count work actually
// performed — including divergence retries and parallel work the
// merged report discards — so they are not deterministic across
// Parallelism; use Result.RunReport for deterministic output.
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics registry for Options.Metrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// EventRecorder is the bounded, non-blocking structured event sink of
// the observability layer: attach one via Options.EventSink and it
// serializes schedule points, yield-window closures, findings, and
// checkpoint/quarantine lifecycle events as JSONL. Call Close when the
// check returns to flush the stream.
type EventRecorder = obs.Recorder

// Event is one structured trace record of the event stream; see
// docs/OBSERVABILITY.md for the per-type schema.
type Event = obs.Event

// NewEventRecorder starts an event recorder draining into w with the
// given queue capacity (values < 1 use a default of 4096). Emission
// never blocks: when the queue is full, events are dropped and counted
// (EventRecorder.Dropped), so a slow writer can never stall the
// scheduler.
func NewEventRecorder(w io.Writer, buffer int) *EventRecorder {
	return obs.NewRecorder(w, buffer)
}

// RunReport is the deterministic machine-readable summary of a check;
// see Result.RunReport.
type RunReport = obs.RunReport

// Result is the outcome of a Check: the search report plus, when a
// divergence was found, its liveness classification.
type Result struct {
	*Report
	// Liveness is non-nil when the search found a divergence; for a
	// fair search it says whether the divergence is a good-samaritan
	// violation or a livelock. (An unfair DPOR or sleep-set search
	// reports a divergence when the program is outside the reduction's
	// terminating-program precondition; its classification describes
	// an unfair schedule and carries no liveness verdict.)
	Liveness *LivenessReport
	// Races holds the unsynchronized access pairs found when the
	// check ran with CheckRaces.
	Races []Race
}

// Ok reports that the check finished without findings: no safety
// violation, no deadlock, no divergence, no race.
func (r *Result) Ok() bool {
	return r.FirstBug == nil && r.Divergence == nil && len(r.Races) == 0
}

// RunReport assembles the deterministic machine-readable summary of
// the check: for a fixed program, options, and seed, the Encode bytes
// are identical at any Options.Parallelism and across a
// checkpoint/resume cycle, because every field derives from the merged
// search report (wall-clock time, worker counts, and stack traces are
// deliberately excluded). program names the program under test; opts
// must be the options the check ran with.
func (r *Result) RunReport(program string, opts Options) *RunReport {
	fairK := opts.FairK
	if fairK <= 0 {
		fairK = 1
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = engine.DefaultMaxSteps
	}
	mm, _ := core.ParseMemModel(opts.MemModel) // validated by Check
	bufCap := 0
	if mm == core.MemTSO {
		bufCap = opts.TSOBufCap
	}
	rep := r.Report
	out := &RunReport{
		Schema:   obs.ReportSchema,
		Program:  program,
		Strategy: search.StrategyName(&opts),
		Seed:     opts.Seed,
		Options: obs.RunOptions{
			Fair:         opts.Fair,
			FairK:        fairK,
			ContextBound: opts.ContextBound,
			DepthBound:   opts.DepthBound,
			RandomTail:   opts.RandomTail,
			PCTDepth:     opts.PCTDepth,
			MaxSteps:     maxSteps,
			Conformance:  !opts.DisableConformance,
			MemModel:     mm.String(),
			TSOBufCap:    bufCap,
		},
		Counters: obs.RunCounters{
			Executions:     rep.Executions,
			TotalSteps:     rep.TotalSteps,
			MaxDepth:       rep.MaxDepth,
			Yields:         rep.Yields,
			EdgeAdds:       rep.EdgeAdds,
			EdgeErases:     rep.EdgeErases,
			FairBlocked:    rep.FairBlocked,
			NonTerminating: rep.NonTerminating,
			PrunedVisited:  rep.PrunedVisited,
			PrunedSleep:    rep.PrunedSleep,
			Deadlocks:      rep.Deadlocks,
			Violations:     rep.Violations,
			Wedges:         rep.Wedges,
			Quarantined:    rep.Quarantined,
			Skipped:        rep.Skipped,
			Races:          int64(len(r.Races)),
			BufferedStores: rep.BufferedStores,
			Flushes:        rep.Flushes,
			Fences:         rep.Fences,
			Forwards:       rep.Forwards,
		},
		Outcome: obs.RunOutcome{
			Exhausted:   rep.Exhausted,
			ExecBounded: rep.ExecBounded,
			TimedOut:    rep.TimedOut,
			Interrupted: rep.Interrupted,
		},
		Findings: []obs.RunFinding{},
	}
	if rep.FirstBug != nil {
		kind := "violation"
		if rep.FirstBug.Outcome == engine.Deadlock {
			kind = "deadlock"
		}
		out.Findings = append(out.Findings,
			runFinding(&opts, kind, rep.FirstBug, rep.FirstBugExecution, rep.BugReproducibility))
	}
	if rep.Divergence != nil {
		out.Findings = append(out.Findings,
			runFinding(&opts, "livelock", rep.Divergence, rep.DivergenceExecution, rep.DivergenceReproducibility))
	}
	if rep.FirstWedge != nil {
		out.Findings = append(out.Findings,
			runFinding(&opts, "wedge", rep.FirstWedge, rep.FirstWedgeExecution, nil))
	}
	// Execution order, which is deterministic; the assembly order above
	// is not (a wedge can precede a bug).
	for i := 1; i < len(out.Findings); i++ {
		for j := i; j > 0 && out.Findings[j].Execution < out.Findings[j-1].Execution; j-- {
			out.Findings[j], out.Findings[j-1] = out.Findings[j-1], out.Findings[j]
		}
	}
	return out
}

// runFinding builds one report finding from a finding result.
func runFinding(opts *Options, kind string, fr *ExecResult, exec int64, repro *Reproducibility) obs.RunFinding {
	f := obs.RunFinding{
		Kind:        kind,
		Execution:   exec,
		Steps:       fr.Steps,
		ScheduleLen: len(fr.Schedule),
		Message:     search.FindingMessage(opts, kind, fr),
	}
	if repro != nil {
		f.Reproducibility = repro.String()
	}
	return f
}

// Check explores prog under opts and classifies any divergence. An
// invalid option combination is reported as an error instead of a
// panic.
func Check(prog func(*conc.T), opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rep := search.Explore(prog, opts)
	res := &Result{Report: rep}
	if rep.Divergence != nil {
		res.Liveness = liveness.Classify(rep.Divergence, liveness.Options{})
	}
	return res, nil
}

// CheckRaces is Check with the happens-before race detector attached:
// accesses to shared variables that are unordered by synchronization
// are reported even on executions where nothing misbehaves. Composes
// with any monitor already set in opts. The detector is a monitor, so
// CheckRaces requires Parallelism <= 1.
func CheckRaces(prog func(*conc.T), opts Options) (*Result, error) {
	d := race.NewDetector()
	if opts.Monitor != nil {
		opts.Monitor = engine.MultiMonitor{opts.Monitor, d}
	} else {
		opts.Monitor = d
	}
	res, err := Check(prog, opts)
	if err != nil {
		return nil, err
	}
	res.Races = d.Races()
	return res, nil
}

// BoundReport is one step of an iterative context-bounded search.
type BoundReport struct {
	// Bound is the preemption budget of this iteration.
	Bound int
	// Report is the search report at this bound.
	*Report
}

// CheckIterative runs iterative context bounding (Musuvathi & Qadeer,
// PLDI 2007): the search is repeated with preemption budgets
// 0, 1, …, maxBound, so bugs are found with the *smallest* number of
// preemptions that exposes them — the most debuggable counterexample.
// Iteration stops at the first budget that finds something.
func CheckIterative(prog func(*conc.T), maxBound int, opts Options) ([]BoundReport, error) {
	var out []BoundReport
	for b := 0; b <= maxBound; b++ {
		opts.ContextBound = b
		if err := opts.Validate(); err != nil {
			return nil, err
		}
		rep := search.Explore(prog, opts)
		out = append(out, BoundReport{Bound: b, Report: rep})
		if rep.FirstBug != nil || rep.Divergence != nil {
			break
		}
	}
	return out, nil
}

// Replay re-executes prog along a previously recorded schedule with
// full trace recording, reproducing a bug found by Check. A schedule
// that diverges from the program (corrupted, truncated, recorded
// against a different program or configuration — or a program that is
// nondeterministic under its own schedule) is reported as an error
// (*DivergenceError, pinpointing the first divergent step; its
// NotSchedulable marks a step the program could not take at all); the
// partial result is returned alongside it for diagnosis. ReplayVerified
// additionally checks per-step conformance digests.
func Replay(prog func(*conc.T), schedule []engine.Alt, opts Options) (*ExecResult, error) {
	return ReplayVerified(prog, schedule, nil, opts)
}

// ReplayVerified is Replay with per-step conformance verification:
// digests recorded alongside the schedule (ExecResult.Digests of a
// finding) are compared at every step, so nondeterminism that keeps
// the scheduled thread runnable — but changes what it is about to do —
// is still detected and pinpointed.
func ReplayVerified(prog func(*conc.T), schedule []engine.Alt, digests []StepDigest, opts Options) (*ExecResult, error) {
	if _, err := core.ParseMemModel(opts.MemModel); err != nil {
		return nil, err
	}
	ch := &engine.ReplayChooser{Schedule: schedule, Digests: digests}
	cfg := opts.ReplayConfig()
	cfg.RecordTrace, cfg.RecordDigests = true, true
	r := engine.Run(prog, ch, cfg)
	if ch.Div != nil {
		return r, ch.Div
	}
	if r.Outcome == engine.Aborted && r.Steps == int64(len(schedule)) {
		return r, fmt.Errorf("fairmc: replay consumed all %d schedule steps without reaching the recorded outcome (truncated schedule?)", len(schedule))
	}
	return r, nil
}

// RunOnce executes prog once under the fair scheduler with a
// run-to-completion policy — the quickest way to smoke-test a model
// program before a full check.
func RunOnce(prog func(*conc.T), opts Options) *ExecResult {
	// An unknown memory model panics here (in ReplayConfig): Check
	// surfaces it as an error, RunOnce has no error path.
	cfg := opts.ReplayConfig()
	cfg.RecordTrace = true
	return engine.Run(prog, engine.RunToCompletionChooser{}, cfg)
}

// Engine is the running execution a Pred's Eval observes (rarely
// needed directly: predicates usually close over model objects and
// read them with Peek).
type Engine = engine.Engine

// Pred is a named predicate over the model state, sampled after every
// transition; use object Peek accessors inside Eval.
type Pred = liveness.Pred

// Property is a conjunction of GF ("infinitely often") and FG
// ("eventually always") predicates — the liveness fragment of the
// paper's §6 future-work item.
type Property = liveness.Property

// PropertyReport is the verdict of a property check on a diverging
// execution's tail.
type PropertyReport = liveness.PropertyReport

// PropertyResult couples a Check result with the property verdict.
type PropertyResult struct {
	*Result
	// Property is the verdict for the diverging execution, or nil if
	// no divergence was found (liveness verdicts only apply to
	// diverging executions).
	Property *PropertyReport
}

// lazyPropertyMonitor defers monitor construction to the first step of
// each execution, when the program has created the objects the
// predicates reference, and rebuilds it per execution.
type lazyPropertyMonitor struct {
	build  func() Property
	window int
	inner  *liveness.PropertyMonitor
}

func (l *lazyPropertyMonitor) AfterInit(e *engine.Engine) { l.inner = nil }
func (l *lazyPropertyMonitor) AfterStep(e *engine.Engine) {
	if l.inner == nil {
		l.inner = liveness.NewPropertyMonitor(l.build(), l.window)
		l.inner.AfterInit(e)
	}
	l.inner.AfterStep(e)
}

// CheckProperty explores prog and evaluates the liveness property on
// the first diverging execution's tail. Because model objects are
// created inside the program, build runs once per execution, after the
// program's first transition; have prog publish object references
// (e.g. into captured pointers) that build closes over. window is the
// number of tail samples evaluated (0 = 256).
func CheckProperty(prog func(*conc.T), build func() Property, window int, opts Options) (*PropertyResult, error) {
	mon := &lazyPropertyMonitor{build: build, window: window}
	if opts.Monitor != nil {
		opts.Monitor = engine.MultiMonitor{opts.Monitor, mon}
	} else {
		opts.Monitor = mon
	}
	res, err := Check(prog, opts)
	if err != nil {
		return nil, err
	}
	out := &PropertyResult{Result: res}
	if res.Divergence != nil && mon.inner != nil {
		out.Property = mon.inner.Report(res.Divergence)
	}
	return out, nil
}
