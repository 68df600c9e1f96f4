// Package search implements stateless state-space exploration over the
// schedule tree of a model program: depth-first search, context-
// bounded search (preemption bounding, Musuvathi & Qadeer PLDI 2007),
// depth-bounded search with a seeded random tail, and optional
// stateful pruning used to compute ground-truth state counts for the
// coverage experiments.
//
// The searcher is a Chooser: each execution replays the decisions kept
// on the DFS stack and then explores fresh alternatives, recording new
// choice points. Backtracking truncates the stack to the deepest
// choice point with an untried alternative. Combined with the fair
// scheduler (internal/core, wired in by the engine) this is the
// paper's fair stateless model checking algorithm with a systematic
// search strategy plugged into the Choose of Algorithm 1.
package search

import (
	"slices"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/rng"
	"fairmc/internal/tidset"
)

// Options configures a search, and is the one description of it that
// travels: a plan, a job's ledger record, a lease grant and a worker
// all carry Spec(), the options as JSON without the runtime-only fields
// (json:"-": parallelism, wall-clock budget, monitor, checkpoint
// directory, stop, telemetry), and OptionsHash fingerprints that.
type Options struct {
	// Fair enables the fair scheduler (Algorithm 1).
	Fair bool `json:"fair"`
	// FairK is the k-th-yield parameterization; 0 means 1.
	FairK int `json:"fairK,omitempty"`
	// ContextBound is the preemption budget per execution; negative
	// means unbounded (the paper's "dfs" strategy).
	ContextBound int `json:"contextBound"`
	// DepthBound stops systematic branching after this many steps;
	// 0 means none. The paper uses depth bounds only for the unfair
	// searches, where termination is otherwise not guaranteed.
	DepthBound int `json:"depthBound,omitempty"`
	// RandomTail finishes depth-bounded executions with seeded random
	// scheduling until termination or MaxSteps (paper §4.2.1: "once
	// the depth-bound is reached, a random search is performed until
	// the end of the execution is reached"). Without it, executions
	// are cut at the depth bound and counted as nonterminating
	// (Figure 2's measurement).
	RandomTail bool `json:"randomTail,omitempty"`
	// RandomWalk replaces the systematic DFS entirely: every execution
	// is scheduled uniformly at random (seeded per execution index).
	// The walk never exhausts; bound it with MaxExecutions or
	// TimeLimit. This is the "stress testing, but reproducible"
	// baseline a systematic checker is measured against.
	RandomWalk bool `json:"randomWalk,omitempty"`
	// PCT replaces the systematic DFS with probabilistic concurrency
	// testing (Burckhardt et al., ASPLOS 2010): random thread
	// priorities plus PCTDepth−1 random priority-change points per
	// execution; any bug of depth d is found per execution with
	// probability ≥ 1/(n·kᵈ⁻¹). Like RandomWalk it never exhausts:
	// bound it with MaxExecutions or TimeLimit.
	PCT bool `json:"pct,omitempty"`
	// PCTDepth is the targeted bug depth d; 0 means 3.
	PCTDepth int `json:"pctDepth,omitempty"`
	// MaxSteps caps a single execution; exceeding it is a divergence.
	// 0 means engine.DefaultMaxSteps.
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// MemModel selects the memory model programs using conc.Memory run
	// under: "" or "sc" (sequential consistency, the default) or "tso"
	// (total store order: per-thread store buffers with store-to-load
	// forwarding, drained by engine-scheduled flush steps). The model is
	// a searched axis — flush nondeterminism enters the candidate set
	// like any thread, so every strategy (DFS, PCT, DPOR, …) and the
	// fair scheduler cover it. Semantic: part of the checkpoint options
	// hash whenever it is not the default.
	MemModel string `json:"memModel,omitempty"`
	// TSOBufCap bounds each thread's store buffer under MemModel "tso";
	// a store into a full buffer blocks until a flush drains an entry.
	// 0 means unbounded. Ignored under "sc".
	TSOBufCap int `json:"tsoBufCap,omitempty"`
	// MaxExecutions caps the number of executions; 0 means unbounded.
	MaxExecutions int64 `json:"maxExecutions,omitempty"`
	// TimeLimit caps the wall-clock duration; 0 means unbounded.
	TimeLimit time.Duration `json:"-"`
	// Seed drives random tails.
	Seed uint64 `json:"seed"`
	// Monitor, if non-nil, observes every execution (coverage
	// tracking for Table 2 hooks in here).
	Monitor engine.Monitor `json:"-"`
	// StatefulPrune cuts executions that re-enter an already-expanded
	// state, turning the search into the stateful reference search
	// used for the "Total States" column of Table 2. Unsound together
	// with Fair (the fair scheduler's state is path-dependent), so it
	// requires Fair to be false.
	StatefulPrune bool `json:"statefulPrune,omitempty"`
	// DPOR enables conservative dynamic partial-order reduction (see
	// internal/search/dpor.go and docs/DPOR.md): the search explores
	// one schedule, and every pair of conflicting transitions it
	// observes spawns a self-contained work unit — a schedule prefix
	// ending in the race reversal — until no unexplored reversal
	// remains, with sleep sets riding in the units (por.Unit.Sleep).
	// Finds all deadlocks and assertion violations of programs that
	// terminate under every schedule, in far fewer executions than full
	// DFS; it does NOT guarantee full state coverage (use SleepSets
	// alone for that). Requires Fair to be false and a terminating
	// program (no DepthBound / RandomTail / RandomWalk / PCT): an
	// execution that reaches MaxSteps is reported as a Divergence,
	// never as exhaustion. Because the units are
	// serializable and merged in a canonical order, DPOR runs at any
	// Parallelism, distributed (Shard.Unit), and under
	// checkpoint/resume, always with a byte-identical report.
	DPOR bool `json:"dpor,omitempty"`
	// SleepSets enables sleep-set partial-order reduction
	// (internal/por): redundant interleavings of independent
	// transitions are pruned while every reachable state stays
	// visited. The reduction assumes transitions commute outright,
	// which the fair scheduler's path-dependent state breaks, so it
	// requires Fair to be false (the paper flags combining the two as
	// future work). Like DPOR it presumes a terminating program: an
	// execution that reaches MaxSteps is reported as a Divergence.
	// DPOR always includes sleep sets: with DPOR this is a no-op.
	SleepSets bool `json:"sleepSets,omitempty"`
	// Parallelism runs the search on this many worker goroutines, each
	// with its own engine; 0 or 1 is the sequential searcher (on the
	// driver, for DPOR and a search that checkpoints). The search is
	// split into an ordered plan of shards — execution-index ranges for
	// the random strategies (RandomWalk, PCT: seeded per index, so the
	// explored schedule set is identical to the sequential run for any
	// Parallelism), schedule-tree prefixes at shallow choice points for
	// the systematic ones, race-reversal work units for DPOR — and the
	// shard reports merge in plan order (see driver.go).
	// Caveat: above Parallelism 1, RandomTail seeds tails by
	// subtree-local execution index, so a parallel depth-bounded search
	// is deterministic for a given Parallelism but explores different
	// tails than the sequential one.
	// Incompatible (as is checkpointing) with StatefulPrune, Monitor,
	// and SleepSets without DPOR, whose state is shared across
	// executions: Validate refuses those combinations rather than race
	// (no silent unsoundness).
	// DPOR parallelizes: its sleep sets live in self-contained work
	// units, not the searcher.
	Parallelism int `json:"-"`
	// DivergenceRetries is how many times a prefix replay that stops
	// conforming to its recorded digests is re-executed before the
	// subtree is quarantined (counted in Report.Quarantined with a
	// NondeterminismReport). 0 means the default (2); negative means
	// no retries.
	DivergenceRetries int `json:"divergenceRetries,omitempty"`
	// ConfirmRuns is the confirmation pass: each schedule-backed
	// finding (FirstBug, Divergence) is replayed this many times after
	// the search and tagged with a Reproducibility verdict
	// (stable/flaky). 0 disables the pass; the fairmc facade defaults
	// it to 3. Wedges are never confirmed (not replayable).
	ConfirmRuns int `json:"confirmRuns,omitempty"`
	// DisableConformance turns off the per-step conformance digests the
	// systematic searcher records at every choice point and verifies on
	// every prefix replay. Detection of outright not-schedulable
	// divergence (and quarantine) remains active; only the digest
	// comparison — which catches nondeterminism that keeps the
	// scheduled alternative schedulable — is skipped. Deterministic
	// programs produce identical reports with conformance on or off.
	DisableConformance bool `json:"disableConformance,omitempty"`
	// ContinueAfterViolation keeps searching after safety violations
	// instead of stopping at the first one.
	ContinueAfterViolation bool `json:"continueAfterViolation,omitempty"`
	// ContinueAfterDivergence keeps searching after a Divergence
	// finding. An execution that exceeds MaxSteps is a liveness-error
	// candidate in fair mode and voids the reduction's
	// terminating-program precondition under DPOR or SleepSets; both
	// stop the search by default. In plain unfair mode such executions
	// are ordinary nonterminating ones and the search always continues.
	ContinueAfterDivergence bool `json:"continueAfterDivergence,omitempty"`
	// RecordTrace makes every execution record a full trace (slow;
	// the searcher replays the offending schedule itself to produce
	// repro traces, so this is normally unnecessary).
	RecordTrace bool `json:"recordTrace,omitempty"`
	// Watchdog is the per-execution stuck-thread detector interval,
	// threaded to engine.Config.Watchdog: a model thread that blocks or
	// spins outside the conc API for longer than this ends its
	// execution with outcome Wedged (a finding — see Report.Wedges)
	// instead of hanging the search forever. 0 disables it.
	Watchdog time.Duration `json:"watchdog,omitempty"`
	// ProgramName identifies the program under test in plans and
	// checkpoint directories; rerunning a directory under another name
	// is refused (Matches). Optional for searches that never checkpoint.
	ProgramName string `json:"program"`
	// CheckpointPath, when nonempty, names a directory the search
	// records its progress in — its plan and every shard report it
	// merges, as ledger records (checkpoint.go) — synced at every
	// checkpoint and when it stops; the search then runs on the driver.
	// Running the same search over the directory again resumes it:
	// budgets (MaxExecutions, TimeLimit) and the other operational
	// settings may change, anything else must match.
	CheckpointPath string `json:"-"`
	// CheckpointInterval is the minimum time between checkpoints (ledger
	// syncs; at Parallelism 1, pauses of the running shard); 0 means
	// 30s. The stop always syncs.
	CheckpointInterval time.Duration `json:"checkpointInterval,omitempty"`
	// Stop, when non-nil, is polled between executions and every 64
	// steps inside one (engine.Config.Stop), and by the merge loop of a
	// parallel search: closing it interrupts the search, which drops the
	// execution it cut (from the report, and from Metrics' execution
	// counts and the event stream's exec_end records; the cut run's
	// step events stay), writes a final checkpoint (when configured) and
	// returns with Report.Interrupted set. This is how cmd/fairmc
	// turns SIGINT/SIGTERM into a clean, resumable stop.
	Stop <-chan struct{} `json:"-"`
	// Metrics, if non-nil, is the live telemetry registry every engine
	// run and searcher decision updates (internal/obs). Safe with any
	// Parallelism (updates are atomic) and with checkpointing (the
	// registry is operational state, not search state: it is excluded
	// from the options hash and not persisted). Metrics count work
	// actually performed — divergence retries, cancelled subtrees —
	// so they are not deterministic across Parallelism; the merged
	// Report is.
	Metrics *obs.Metrics `json:"-"`
	// EventSink, if non-nil, receives structured JSONL trace events
	// (schedule points, yield-window closures, findings, quarantine and
	// checkpoint lifecycle). Same compatibility story as Metrics.
	// Emission never blocks; a slow sink drops events and counts them.
	EventSink *obs.Recorder `json:"-"`
}

// Spec returns the options with the runtime-only fields cleared: the
// search as another process runs it.
func (o Options) Spec() Options {
	o.Parallelism, o.TimeLimit, o.CheckpointPath = 0, 0, ""
	o.Monitor, o.Stop, o.Metrics, o.EventSink = nil, nil, nil, nil
	return o
}

// Counters are the additive statistics of a search: everything a
// merge sums (MaxDepth: maximizes). They are embedded in Report, so
// rep.Executions and friends read as before; keeping them in one struct
// is what lets the sequential loop and the shard merge each say "all
// the counters" once.
type Counters struct {
	// Executions is the number of executions explored.
	Executions int64
	// TotalSteps is the sum of execution lengths.
	TotalSteps int64
	// MaxDepth is the longest execution seen.
	MaxDepth int64
	// Yields is the total number of yielding transitions, and EdgeAdds /
	// EdgeErases / FairBlocked the summed fair-scheduler statistics of
	// every counted execution (see engine.Result). Deterministic: like
	// TotalSteps they are merged in execution order, so they are
	// identical at any Parallelism and across checkpoint/resume.
	Yields      int64
	EdgeAdds    int64
	EdgeErases  int64
	FairBlocked int64
	// BufferedStores / Flushes / Fences / Forwards are the summed
	// weak-memory counters of every counted execution (engine.Result.WM):
	// stores buffered, flush steps scheduled, fences completed, and loads
	// served by store-to-load forwarding. All zero under SC with no
	// wm.Memory use; merged in execution order like the fields above, so
	// deterministic at any Parallelism and across checkpoint/resume.
	BufferedStores int64
	Flushes        int64
	Fences         int64
	Forwards       int64
	// NonTerminating counts executions cut at the depth bound or the
	// step cap (Figure 2's y-axis).
	NonTerminating int64
	// PrunedVisited counts executions cut by stateful pruning.
	PrunedVisited int64
	// PrunedSleep counts executions cut because every remaining
	// alternative was asleep (sleep-set reduction).
	PrunedSleep int64
	// Deadlocks and Violations count erroneous executions found.
	Deadlocks  int64
	Violations int64
	// Wedges counts executions that ended with outcome Wedged: a model
	// thread blocked or spun outside the conc API past the watchdog
	// interval.
	Wedges int64
	// Quarantined counts subtrees abandoned because a prefix replay
	// persistently stopped conforming to the recorded schedule: the
	// program is nondeterministic outside the scheduler's control
	// there, and exploring further would search a wrong tree. Each
	// quarantined subtree has a NondeterminismReport. Like Skipped,
	// this is explicit coverage loss: a search with quarantines never
	// claims Exhausted.
	Quarantined int64
	// Skipped counts coverage abandoned after a worker crashed on a
	// shard twice — one subtree or DPOR unit, or every execution index
	// of a range shard. Explicit coverage loss, never silent; details
	// are in WorkerFailures.
	Skipped int64
}

// addResult accounts one finished execution.
func (c *Counters) addResult(r *engine.Result) {
	c.Executions++
	c.TotalSteps += r.Steps
	if r.Steps > c.MaxDepth {
		c.MaxDepth = r.Steps
	}
	c.Yields += r.Yields
	c.EdgeAdds += r.EdgeAdds
	c.EdgeErases += r.EdgeErases
	c.FairBlocked += r.FairBlocked
	c.BufferedStores += r.WM.BufferedStores
	c.Flushes += r.WM.Flushes
	c.Fences += r.WM.Fences
	c.Forwards += r.WM.Forwards
}

// merge folds another report's counters in.
func (c *Counters) merge(o *Counters) {
	c.Executions += o.Executions
	c.TotalSteps += o.TotalSteps
	if o.MaxDepth > c.MaxDepth {
		c.MaxDepth = o.MaxDepth
	}
	c.Yields += o.Yields
	c.EdgeAdds += o.EdgeAdds
	c.EdgeErases += o.EdgeErases
	c.FairBlocked += o.FairBlocked
	c.BufferedStores += o.BufferedStores
	c.Flushes += o.Flushes
	c.Fences += o.Fences
	c.Forwards += o.Forwards
	c.NonTerminating += o.NonTerminating
	c.PrunedVisited += o.PrunedVisited
	c.PrunedSleep += o.PrunedSleep
	c.Deadlocks += o.Deadlocks
	c.Violations += o.Violations
	c.Wedges += o.Wedges
	c.Quarantined += o.Quarantined
	c.Skipped += o.Skipped
}

// Report summarizes a search.
type Report struct {
	Counters
	// FirstBug is the first safety violation or deadlock found, with
	// a full repro trace, and FirstBugExecution the 1-based index of
	// the execution that found it.
	FirstBug          *engine.Result
	FirstBugExecution int64
	// Divergence is the first fair execution that exceeded MaxSteps:
	// the candidate liveness error the paper's outcome 2/3 describes.
	// Under DPOR or SleepSets (unfair) it is the first execution that
	// exceeded MaxSteps at all: the program is outside the reduction's
	// terminating-program precondition and the search proves nothing.
	Divergence          *engine.Result
	DivergenceExecution int64
	// FirstWedge is the first execution that ended Wedged (its schedule
	// is the wedge-free prefix) and FirstWedgeExecution its 1-based
	// index. A wedge stops the search like a violation unless
	// ContinueAfterViolation is set.
	FirstWedge          *engine.Result
	FirstWedgeExecution int64
	// Nondeterminism describes each quarantined subtree, in the order
	// the (sequential or merged-parallel) search encountered them.
	Nondeterminism []NondeterminismReport
	// BugReproducibility / DivergenceReproducibility are the
	// confirmation verdicts for FirstBug / Divergence when
	// Options.ConfirmRuns > 0 (see Reproducibility).
	BugReproducibility        *Reproducibility
	DivergenceReproducibility *Reproducibility
	// Exhausted reports that the schedule tree was fully explored.
	Exhausted bool
	// TimedOut / ExecBounded report which budget stopped the search.
	TimedOut    bool
	ExecBounded bool
	// Interrupted reports that the search stopped because Options.Stop
	// was closed (e.g. SIGINT in cmd/fairmc). Interrupted searches are
	// resumable from their final checkpoint.
	Interrupted bool
	// WorkerFailures records every recovered parallel-worker crash,
	// sorted by (Unit, Attempt). A shard appears once per failed
	// attempt; a shard whose retry succeeded contributes its results
	// normally and appears here only as history.
	WorkerFailures []WorkerFailure
	// CheckpointError records the first failed checkpoint write; the
	// search itself continues (losing resumability is better than
	// losing the run).
	CheckpointError string
	// Dpor carries a DPOR work unit's exploration payload (its
	// continuation and race-reversal proposals) back to the merge. Set
	// only on single-unit reports (RunShard with Shard.Unit); merged
	// reports never carry it.
	Dpor *DporResult `json:",omitempty"`
	// Rest names, on the report of a serial plan's shard that stopped
	// early after running anything (paused for a checkpoint, or cut), the
	// shard for what it left: the merge splices it into the plan after
	// the shard, as it appends a DPOR unit's children. Merged reports
	// never carry one.
	Rest *Shard `json:",omitempty"`
	// Elapsed is the wall-clock search time; a resumed search adds the
	// time its recorded runs spent.
	Elapsed time.Duration
}

// cut reports whether r stopped short of its shard: cancelled, out of
// time or, for a subtree (whose budget is the search's), out of
// executions. A finished range is ExecBounded by construction: its
// budget is its Hi.
func (r *Report) cut(ranged bool) bool {
	return r.TimedOut || r.Interrupted || (r.ExecBounded && !ranged)
}

// frame is one decision on the DFS stack. Its alternatives and their
// pending ops are windows of the searcher's two arenas (altArena,
// opArena), not slices of its own: the stack is strictly LIFO, so a
// frame's storage is the arenas' tail when it is pushed and is given
// back when it is popped (truncate), and a push allocates nothing once
// the arenas have grown to the search's depth. Whoever needs a frame's
// contents past that — a quarantine report — copies.
//
// A frame's region starts at alt0 / op0. It holds the alternatives to
// explore first, then — when a memo is kept and a context bound or sleep
// sets filtered some candidates out — the unfiltered candidate set (when
// nothing was filtered the alternatives are the memo, stored once). The
// two arenas are laid out alike: the op of the alternative at
// altArena[alt0+i] is opArena[op0+i], for as many ops as were recorded.
type frame struct {
	idx int // alternative currently taken
	// Conformance bookkeeping: dig is the candidate-set digest recorded
	// when this choice point was first reached (hasDig gates it — a
	// frame with conformance disabled has none).
	dig    uint64
	hasDig bool

	alt0, op0 int
	// The alternatives to explore, in discovery order, are
	// altArena[alt0:][:nAlts]; ops[i], the pending op of alternative i at
	// that time, is opArena[op0:][:nOps]. nOps is nAlts with a digest
	// (Validate holds a prefix's Later to that) and 0 without.
	nAlts, nOps int
	// Prefix memo: altArena[alt0+memoOff:][:nMemo] and
	// opArena[op0+memoOff:][:nMemo] are the full unfiltered candidate set
	// and each candidate's pending op, captured when this choice point
	// was first expanded. It is a cache in front of engine.Conform: a
	// replay that matches it structurally has validated strictly more
	// than the digest compare (CandsDigest is a pure function of exactly
	// these values, and the frame's alternatives are among them), so it
	// skips the call. nMemo is 0 with DisableConformance, past
	// memoDepthCap, or for the frames of a shard's prefix (the memo never
	// travels).
	memoOff, nMemo int
}

// memoDepthCap bounds the prefix memo by depth: frames deeper than
// this carry no memo and replay through the digest compare instead.
// Shallow frames are the most-replayed ones (a frame at depth d is
// revisited once per execution in its subtree), so capping by depth is
// the "evict deepest first" policy with zero bookkeeping.
const memoDepthCap = 4096

type abortReason int8

const (
	abortNone abortReason = iota
	abortDepthBound
	abortVisited
	abortSleep
)

// searcher runs the exploration; it implements engine.Chooser. It is
// the one shard executor: a whole sequential search is the unrestricted
// shard, a frontier subtree pins the stack's first frames, a range
// shard offsets and caps the execution index.
type searcher struct {
	prog func(*engine.T)
	opts Options

	stack []frame
	fixed int // frames [0, fixed) are replayed; the frame at fixed-1 carries the new branch
	// altArena and opArena hold every stacked frame's alternatives and
	// pending ops, in stack order (see frame).
	altArena []engine.Alt
	opArena  []engine.OpInfo

	pos         int // frames consumed in the current execution
	preemptUsed int
	tailRand    rng.Rand
	reason      abortReason
	divErr      *engine.DivergenceError // the replayed step that did not conform, if any
	sleep       por.Set                 // current sleep set (when Options.SleepSets)
	pct         *pctState               // per-execution PCT assignment (when Options.PCT)

	visited map[visitKey]struct{}

	// pool reuses one engine (threads, buffers, worker coroutines)
	// across this searcher's executions.
	// It belongs to whoever runs the searcher (the sequential search, a
	// driver worker, a dist worker) and outlives it.
	pool *engine.Pool
	// execHits / execMisses are this execution's prefix-memo counters,
	// flushed to opts.Metrics after every engine run (searcher-local so
	// the hot path costs no atomics).
	execHits   int64
	execMisses int64

	// execBase offsets the execution index: execution number n of this
	// searcher has global index execBase+n (range shards start past 1).
	// execLimit, when positive, is the last index to run.
	execBase  int64
	execLimit int64

	// whole marks the unrestricted shard, a search run by this searcher
	// alone: it publishes the Frontier gauge itself. A real shard's owner
	// does.
	whole bool
	// due, when set, is polled between executions once one has run;
	// paused records that it said so and stopped the run (runSerial).
	due    func() bool
	paused bool

	report   Report
	start    time.Time
	deadline time.Time
}

type visitKey struct {
	fp engine.Fingerprint
	// budget disambiguates states under context bounding: the same
	// program state with more preemption budget left has successors a
	// lower-budget visit must not prune away.
	budget int16
	// So, under context bounding, does what ChooseContext.IsPreemption
	// reads: the same state reached where a switch is free (after a
	// yield, say) has successors a visit where it costs a preemption
	// must not prune away.
	prevTid                                   tidset.Tid
	prevEnabled, prevFairBlocked, prevYielded bool
}

// Explore runs the search to completion (tree exhausted) or until a
// budget or stop condition is hit, then runs the confirmation pass
// over any findings (Options.ConfirmRuns).
func Explore(prog func(*engine.T), opts Options) *Report {
	// Backstop: user-facing entry points (the fairmc facade, the CLI)
	// call Options.Validate and surface the error; internal callers
	// reaching Explore with invalid options are a bug.
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	var rep *Report
	if opts.DPOR || opts.sharded() {
		// One driver for every sharded search: plan, run shards on P
		// workers, merge in plan order (driver.go). DPOR takes it at
		// P = 1 too (its schedule space only exists as a growing plan),
		// as does a search that checkpoints (its shards are its progress).
		rep = exploreSharded(prog, opts)
	} else {
		// The sequential search is the shard executor run over the whole
		// schedule space.
		var pool engine.Pool
		rep = runSearcher(prog, &opts, Shard{}, &pool, opts.deadlineFrom(time.Now()))
		pool.Close()
	}
	confirmReport(prog, &opts, rep)
	return rep
}

// deadlineFrom is the absolute deadline TimeLimit sets for a search
// started at start; zero when there is none.
func (o *Options) deadlineFrom(start time.Time) time.Time {
	if o.TimeLimit <= 0 {
		return time.Time{}
	}
	return start.Add(o.TimeLimit)
}

// runSearcher runs the sequential searcher over one shard of the
// schedule space — the zero Shard is all of it — honoring opts.Stop
// when set. (Stop is also how a shard's owner cancels it.)
func runSearcher(prog func(*engine.T), opts *Options, sh Shard, pool *engine.Pool,
	deadline time.Time) *Report {
	s := newSearcher(prog, opts, sh, pool, deadline)
	s.run()
	s.report.Elapsed = time.Since(s.start)
	return &s.report
}

// newSearcher positions a searcher at the start of shard sh: the stack
// pinned to the shard's prefix, the execution index offset to its first
// execution.
func newSearcher(prog func(*engine.T), opts *Options, sh Shard, pool *engine.Pool,
	deadline time.Time) *searcher {
	s := &searcher{prog: prog, opts: *opts, pool: pool, start: time.Now(),
		deadline: deadline, whole: sh == Shard{}, execLimit: opts.MaxExecutions}
	if opts.StatefulPrune {
		s.visited = make(map[visitKey]struct{})
	}
	s.execBase = max(sh.Lo-1, 0)
	if sh.Hi > 0 {
		s.execLimit = sh.Hi
	}
	if pfx := sh.Prefix; pfx != nil {
		// The prefix decisions become single-alternative frames, so
		// backtracking exhausts exactly the subtree below them — plus,
		// where the prefix lists them, the alternatives a paused shard's
		// steps have left.
		later := pfx.Later
		for i := range pfx.Sched {
			fr := frame{}
			alts := pfx.Sched[i : i+1]
			var ops []engine.OpInfo
			if i < len(pfx.Digs) {
				d := &pfx.Digs[i]
				fr.dig = d.Hash
				fr.hasDig = !opts.DisableConformance
				ops = []engine.OpInfo{d.Op}
			}
			if len(later) > 0 && later[0].Step == i {
				alts = append(slices.Clip(alts), later[0].Alts...)
				ops = append(ops, later[0].Ops...)
				later = later[1:]
			}
			s.restoreFrame(fr, alts, ops)
		}
	}
	s.fixed = len(s.stack)
	return s
}

// runSerial runs a shard's searcher for the local driver's serial plan
// (see exploreSharded) until the shard is done or stops early: paused by
// due between two executions, or cut by the deadline, Stop or (a
// subtree) the search's budget. Having run anything, it then names in
// the report's Rest the shard for what is left, and the searcher goes on
// as that shard, its prefix memo intact; the report counts as exhausted
// unless it quarantined, since the rest covers the remainder.
func (s *searcher) runSerial() *Report {
	s.run()
	r := s.report
	ranged := s.opts.random() // a range's Hi is its own budget, not a cut
	if !(s.paused || r.cut(ranged)) || r.Executions+r.Quarantined == 0 {
		return &r
	}
	r.Exhausted = r.Quarantined == 0
	s.execBase += r.Executions
	s.report, s.paused = Report{}, false
	r.Rest = &Shard{Lo: s.execBase + 1, Hi: s.execLimit}
	if !ranged {
		r.Rest.Hi, r.Rest.Prefix = 0, s.rest()
	}
	return &r
}

// rest is the searcher's position when it stopped between executions,
// as a prefix shard: the path the next execution replays, each step with
// the alternatives its frame has yet to try after that path's (Later),
// and the digests the stack recorded, so the shard's replays are checked
// as the searcher's would have been.
func (s *searcher) rest() *SavedPrefix {
	p := &SavedPrefix{Sched: make([]engine.Alt, len(s.stack))}
	for k := range s.stack {
		fr := &s.stack[k]
		alts := s.alts(fr)
		p.Sched[k] = alts[fr.idx]
		dig := len(p.Digs) == k && fr.nOps > 0
		if dig {
			p.Digs = append(p.Digs, engine.StepDigest{Hash: fr.dig, Tid: alts[fr.idx].Tid, Op: s.ops(fr)[fr.idx]})
		}
		if fr.idx+1 < fr.nAlts {
			l := LaterAlts{Step: k, Alts: slices.Clone(alts[fr.idx+1:])}
			if dig {
				l.Ops = slices.Clone(s.ops(fr)[fr.idx+1:])
			}
			p.Later = append(p.Later, l)
		}
	}
	return p
}

// flushMemoCounters publishes one execution's prefix-memo hit/miss
// counts to the metrics registry and zeroes the local accumulators.
func (s *searcher) flushMemoCounters() {
	if s.execHits == 0 && s.execMisses == 0 {
		return
	}
	if m := s.opts.Metrics; m != nil {
		m.PrefixHits.Add(s.execHits)
		m.PrefixMisses.Add(s.execMisses)
	}
	s.execHits = 0
	s.execMisses = 0
}

func (s *searcher) run() {
	// Execution indices are global across resumes and shards: a resumed
	// search continues the same enumeration (and, for the random
	// strategies, the same per-index seeding) the uninterrupted search
	// would run. Quarantined replays do not consume an index, so the
	// index is re-derived from the executions counter each iteration.
	for {
		exec := s.execBase + s.report.Executions + 1
		if s.execLimit > 0 && exec > s.execLimit {
			s.report.ExecBounded = true
			return
		}
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.report.TimedOut = true
			return
		}
		if isClosed(s.opts.Stop) {
			s.report.Interrupted = true
			return
		}
		if s.due != nil && s.report.Executions > 0 && s.due() {
			s.paused = true
			return
		}

		var r *engine.Result
		depth := len(s.stack)
		div, attempts := s.opts.conformingRun(func() *engine.DivergenceError {
			s.resetExec(exec)
			r = s.pool.Run(s.prog, s, s.opts.engineConfig(s.deadline, exec))
			s.flushMemoCounters()
			return s.divErr
		})
		if div != nil {
			// The divergent replay is not an execution; the quarantined
			// subtree is pruned, continue with the rest of the tree.
			s.quarantine(div, attempts)
			if !s.backtrack() {
				return
			}
			continue
		}
		if s.report.cutBy(r) {
			// Stop closed or the deadline passed while the execution ran.
			// It is dropped whole — its frames too — which leaves the
			// search exactly where polling them before the execution
			// would have.
			s.truncate(depth)
			return
		}
		s.report.addResult(r)
		if classify(s.prog, &s.opts, &s.report, r, exec, s.reason) {
			return
		}
		if s.opts.RandomWalk || s.opts.PCT {
			if m := s.opts.Metrics; m != nil && s.whole {
				m.Frontier.Set(exec + 1) // next execution index
			}
			continue // no schedule tree to backtrack over
		}
		if !s.backtrack() {
			// Quarantined subtrees are explicit coverage loss: the tree
			// was not fully explored, so it is not Exhausted (mirrors
			// Skipped in the shard merge).
			s.report.Exhausted = s.report.Quarantined == 0
			return
		}
		if m := s.opts.Metrics; m != nil && s.whole {
			m.Frontier.Set(int64(len(s.stack))) // DFS stack depth
		}
	}
}

// cutBy reports whether r was cut short by Options.Stop or the search
// deadline, recording which on rep. A cut execution is not part of the
// search (the engine has left it out of Metrics and the event stream's
// exec_end records too): the caller drops it and stops, resumably, and
// the resumed search runs it again.
func (rep *Report) cutBy(r *engine.Result) bool {
	rep.Interrupted = rep.Interrupted || r.Interrupted
	rep.TimedOut = rep.TimedOut || r.DeadlineExceeded
	return r.Interrupted || r.DeadlineExceeded
}

// isClosed polls a stop channel; a nil channel is never closed.
func isClosed(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// engineConfig is the engine configuration of execution exec of this
// search: the one place the search options map onto engine.Config.
func (o *Options) engineConfig(deadline time.Time, exec int64) engine.Config {
	cfg := o.ReplayConfig()
	cfg.RecordTrace = o.RecordTrace
	cfg.Monitor = o.Monitor
	cfg.Deadline = deadline
	cfg.Stop = o.Stop
	cfg.Metrics = o.Metrics
	cfg.EventSink = o.EventSink
	cfg.ExecIndex = exec
	return cfg
}

// ReplayConfig is engineConfig for the runs that are bookkeeping, not
// explored executions (frontier expansion, repro, confirmation, and the
// facade's Replay and RunOnce): the program semantics without
// telemetry, monitor or deadline. It panics on a memory-model name
// Validate would have rejected.
func (o *Options) ReplayConfig() engine.Config {
	return engine.Config{
		Fair:      o.Fair,
		FairK:     o.FairK,
		MaxSteps:  o.MaxSteps,
		MemModel:  o.memModel(),
		TSOBufCap: o.TSOBufCap,
		Watchdog:  o.Watchdog,
	}
}

// resetExec resets the per-execution state ahead of one engine.Run;
// divergence-retry attempts reset identically, which is what makes the
// attempt ordering deterministic.
func (s *searcher) resetExec(exec int64) {
	s.pos = 0
	s.preemptUsed = 0
	s.reason = abortNone
	s.divErr = nil
	s.sleep = por.Set{}
	s.tailRand.Seed(rng.Mix(s.opts.Seed, uint64(exec)))
	if s.opts.PCT {
		depth := s.opts.PCTDepth
		if depth <= 0 {
			depth = 3
		}
		horizon := s.opts.MaxSteps
		if horizon <= 0 {
			horizon = engine.DefaultMaxSteps
		}
		s.pct = newPCTState(depth, horizon, &s.tailRand)
	}
}

// quarantine records the persistent divergence div and prunes the
// subtree below the first divergent step: the recorded tree no longer
// describes the program there, so every alternative at (and below) the
// divergent choice point is abandoned. The caller backtracks from the
// truncated stack.
func (s *searcher) quarantine(div *engine.DivergenceError, attempts int) {
	k := div.Step
	if k > len(s.stack) {
		k = len(s.stack)
	}
	prefix := make([]engine.Alt, 0, k+1)
	for i := 0; i <= k && i < len(s.stack); i++ {
		fr := &s.stack[i]
		prefix = append(prefix, s.alts(fr)[fr.idx])
	}
	quarantined(&s.opts, &s.report, prefix, div, attempts)
	s.truncate(k)
}

// quarantined records on rep one replay prefix (up to and including the
// first divergent step) that stopped conforming on every attempt, and
// publishes it to the metrics registry and the event stream.
func quarantined(opts *Options, rep *Report, prefix []engine.Alt, div *engine.DivergenceError, attempts int) {
	rep.Quarantined++
	rep.Nondeterminism = append(rep.Nondeterminism, NondeterminismReport{
		Prefix:         prefix,
		Step:           div.Step,
		Want:           div.Want,
		Expected:       div.Expected,
		Observed:       div.Observed,
		NotSchedulable: div.NotSchedulable,
		Attempts:       attempts,
	})
	if m := opts.Metrics; m != nil {
		m.Quarantined.Inc()
	}
	if sink := opts.EventSink; sink != nil {
		reason := "digest mismatch"
		if div.NotSchedulable {
			reason = "recorded alternative not schedulable"
		}
		sink.Emit(obs.Event{Type: "quarantine", Quarantine: &obs.QuarantineEvent{
			PrefixLen: len(prefix),
			Attempts:  attempts,
			Reason:    reason,
		}})
	}
}

// classify accounts one finished execution's outcome on rep and reports
// whether the search should stop. reason is why the chooser aborted the
// execution, when it did.
func classify(prog func(*engine.T), opts *Options, rep *Report, r *engine.Result, exec int64, reason abortReason) bool {
	switch r.Outcome {
	case engine.Terminated:
		return false
	case engine.Deadlock, engine.Violation:
		kind := "violation"
		if r.Outcome == engine.Deadlock {
			rep.Deadlocks++
			kind = "deadlock"
		} else {
			rep.Violations++
		}
		if rep.FirstBug == nil {
			rep.FirstBug = reproduce(prog, opts, r)
			rep.FirstBugExecution = exec
		}
		emitFinding(opts, kind, r, exec)
		return !opts.ContinueAfterViolation
	case engine.Diverged:
		rep.NonTerminating++
		// Under the fair scheduler an execution past MaxSteps is a
		// liveness-error candidate. Under DPOR or sleep sets it voids the
		// reduction's terminating-program precondition — the unexplored
		// suffix may hold the races that spawn the missing work — so it
		// is a finding too, never folded into an exhausted "OK".
		if opts.Fair || opts.DPOR || opts.SleepSets {
			if rep.Divergence == nil {
				rep.Divergence = reproduce(prog, opts, r)
				rep.DivergenceExecution = exec
			}
			emitFinding(opts, "livelock", r, exec)
			return !opts.ContinueAfterDivergence
		}
		return false
	case engine.Aborted:
		switch reason {
		case abortDepthBound:
			rep.NonTerminating++
		case abortVisited:
			rep.PrunedVisited++
		case abortSleep:
			rep.PrunedSleep++
		}
		return false
	case engine.Wedged:
		// A wedge is a finding: the program escaped the checker's
		// control. No reproduce run — replaying the schedule would
		// only reach the wedge-free prefix (and wedge again).
		rep.Wedges++
		if rep.FirstWedge == nil {
			rep.FirstWedge = r.Clone() // r is the engine pool's
			rep.FirstWedgeExecution = exec
		}
		emitFinding(opts, "wedge", r, exec)
		return !opts.ContinueAfterViolation
	default:
		panic("search: unknown outcome")
	}
}

// emitFinding publishes one finding to the event stream, with the
// one-line message FindingMessage derives from the result.
func emitFinding(opts *Options, kind string, r *engine.Result, exec int64) {
	sink := opts.EventSink
	if sink == nil {
		return
	}
	sink.Emit(obs.Event{Type: "finding", Exec: exec, Finding: &obs.FindingEvent{
		Kind:    kind,
		Steps:   int(r.Steps),
		Message: FindingMessage(opts, kind, r),
	}})
}

// FindingMessage is the one-line description of a finding, shared by
// the event stream and the run report. Deliberately stack-free:
// goroutine stacks vary run to run and would break report determinism.
func FindingMessage(opts *Options, kind string, r *engine.Result) string {
	switch {
	case r.Violation != nil && !r.Violation.IsPanic:
		return r.Violation.String()
	case r.Violation != nil:
		// Panic messages may embed addresses; keep only the fact.
		return "thread panic"
	case r.Wedge != nil:
		return r.Wedge.String()
	case kind == "livelock" && opts.Fair:
		return "execution exceeded the step bound under the fair scheduler"
	case kind == "livelock":
		return "execution exceeded the step bound under a partial-order reduction: its terminating-program precondition failed"
	case kind == "deadlock":
		return "no thread enabled with live threads remaining"
	default:
		return ""
	}
}

// backtrack advances the deepest frame with an untried alternative and
// truncates the stack below it. It reports false when the tree is
// exhausted.
func (s *searcher) backtrack() bool {
	for len(s.stack) > 0 {
		last := &s.stack[len(s.stack)-1]
		last.idx++
		if last.idx < last.nAlts {
			s.fixed = len(s.stack)
			return true
		}
		s.truncate(len(s.stack) - 1)
	}
	return false
}

// truncate pops the stack down to n frames, returning the popped
// frames' storage to the arenas.
func (s *searcher) truncate(n int) {
	if n < len(s.stack) {
		fr := &s.stack[n]
		s.altArena = s.altArena[:fr.alt0]
		s.opArena = s.opArena[:fr.op0]
		s.stack = s.stack[:n]
	}
}

// alts returns fr's alternatives: a window of the arena, valid until fr
// is popped.
func (s *searcher) alts(fr *frame) []engine.Alt {
	return s.altArena[fr.alt0:][:fr.nAlts]
}

// ops returns the pending ops recorded for fr's alternatives.
func (s *searcher) ops(fr *frame) []engine.OpInfo {
	return s.opArena[fr.op0:][:fr.nOps]
}

// restoreFrame pushes a frame whose alternatives are given, not
// observed: a step of a shard's prefix. fr carries the rest (the
// digest); such a frame has no memo.
func (s *searcher) restoreFrame(fr frame, alts []engine.Alt, ops []engine.OpInfo) {
	fr.alt0, fr.op0 = len(s.altArena), len(s.opArena)
	fr.nAlts, fr.nOps = len(alts), len(ops)
	s.altArena = append(s.altArena, alts...)
	s.opArena = append(s.opArena, ops...)
	s.stack = append(s.stack, fr)
}

// Choose implements engine.Chooser: replay the stack, then explore.
func (s *searcher) Choose(ctx *engine.ChooseContext) (engine.Alt, bool) {
	// Stateful pruning: once past the replayed prefix (the first new
	// branch is taken at frame index fixed-1, so fresh states appear
	// from the Choose call at pos == fixed onward), cut executions
	// that re-enter an already-expanded state.
	if s.visited != nil && s.pos >= s.fixed {
		key := visitKey{fp: ctx.Engine.Fingerprint()}
		if s.opts.ContextBound >= 0 {
			key.budget = int16(s.preemptUsed)
			key.prevTid, key.prevEnabled = ctx.PrevTid, ctx.PrevEnabled
			key.prevFairBlocked, key.prevYielded = ctx.PrevFairBlocked, ctx.PrevYielded
		}
		if _, seen := s.visited[key]; seen {
			s.reason = abortVisited
			return engine.Alt{}, false
		}
		s.visited[key] = struct{}{}
	}

	if s.opts.RandomWalk {
		alt := ctx.Cands[s.tailRand.Intn(len(ctx.Cands))]
		if ctx.IsPreemption(alt) {
			s.preemptUsed++
		}
		return alt, true
	}
	if s.opts.PCT {
		return s.pct.choose(ctx), true
	}

	if s.pos < len(s.stack) {
		fr := &s.stack[s.pos]
		s.pos++
		alt := s.alts(fr)[fr.idx]
		if fr.nMemo > 0 && s.memoMatches(ctx, fr) {
			// Prefix-memo hit: the candidate set and every pending op
			// match the snapshot taken when this choice point was first
			// expanded, so the step conforms; skip the digest re-encoding.
			s.execHits++
		} else {
			// Without a digest only schedulability is verified.
			var exp *engine.StepDigest
			if fr.hasDig {
				s.execMisses++
				exp = &engine.StepDigest{Hash: fr.dig, Tid: alt.Tid, Op: s.ops(fr)[fr.idx]}
			}
			// A step that does not conform means the program is
			// nondeterministic outside the scheduler's control. Abort for
			// retry/quarantine instead of exploring a wrong tree (or
			// crashing the worker).
			if s.divErr = ctx.Engine.Conform(s.pos-1, ctx.Cands, alt, exp); s.divErr != nil {
				return engine.Alt{}, false
			}
		}
		if ctx.IsPreemption(alt) {
			s.preemptUsed++
		}
		s.advanceSleep(ctx, fr, alt)
		return alt, true
	}

	// Depth bound: stop branching, either abort (Figure 2 counting)
	// or continue with the seeded random tail (Table 2 runs).
	if s.opts.DepthBound > 0 && ctx.Step >= s.opts.DepthBound {
		if !s.opts.RandomTail {
			s.reason = abortDepthBound
			return engine.Alt{}, false
		}
		alt := ctx.Cands[s.tailRand.Intn(len(ctx.Cands))]
		if ctx.IsPreemption(alt) {
			s.preemptUsed++
		}
		return alt, true
	}

	// A fresh choice point: compute the admissible alternatives under the
	// preemption budget and push a new choice point. ctx.Cands is the
	// engine's reused buffer, so what the frame keeps is copied — into
	// the arenas, at the frame's region. The conformance digest is taken
	// over the unfiltered candidate set — the state property a later
	// replay of any alternative must match.
	fr := frame{alt0: len(s.altArena), op0: len(s.opArena)}
	if !s.opts.DisableConformance {
		fr.dig = ctx.Engine.CandsDigest(ctx.Cands)
		fr.hasDig = true
	}
	s.altArena = s.opts.admissible(s.altArena, ctx, s.preemptUsed)
	if s.opts.SleepSets {
		awake := s.altArena[:fr.alt0]
		for _, a := range s.altArena[fr.alt0:] {
			if !s.sleep.Contains(ctx.Engine, a) {
				awake = append(awake, a)
			}
		}
		s.altArena = awake
	}
	fr.nAlts = len(s.altArena) - fr.alt0
	if fr.nAlts == 0 {
		// Every alternative is asleep: the state's successors are
		// covered by sibling branches. Prune.
		s.reason = abortSleep
		return engine.Alt{}, false
	}
	if fr.hasDig {
		s.keepOps(ctx, s.altArena[fr.alt0:])
		fr.nOps = fr.nAlts
	}
	// The memo does not apply with conformance off (nothing to validate
	// against) or past the depth cap.
	if fr.hasDig && len(s.stack) < memoDepthCap {
		fr.nMemo = len(ctx.Cands)
		if fr.nAlts < fr.nMemo {
			// Some candidate was filtered out, so the alternatives are not
			// the unfiltered set: keep that behind them.
			fr.memoOff = fr.nAlts
			s.altArena = append(s.altArena, ctx.Cands...)
			s.keepOps(ctx, ctx.Cands)
		}
	}
	s.stack = append(s.stack, fr)
	s.pos++
	top := &s.stack[len(s.stack)-1]
	alt := s.alts(top)[0]
	if ctx.IsPreemption(alt) {
		s.preemptUsed++
	}
	s.advanceSleep(ctx, top, alt)
	return alt, true
}

// keepOps appends the pending op of each of alts' threads — the
// per-alternative half of the conformance digest — to the op arena.
func (s *searcher) keepOps(ctx *engine.ChooseContext, alts []engine.Alt) {
	for _, a := range alts {
		s.opArena = append(s.opArena, ctx.Engine.PendingOpInfo(a.Tid))
	}
}

// memoMatches validates a replayed scheduling point against the
// frame's memo: same candidates in the same order, each with the same
// pending op as when the choice point was first expanded.
func (s *searcher) memoMatches(ctx *engine.ChooseContext, fr *frame) bool {
	if len(ctx.Cands) != fr.nMemo {
		return false
	}
	cands, ops := s.altArena[fr.alt0+fr.memoOff:][:fr.nMemo], s.opArena[fr.op0+fr.memoOff:][:fr.nMemo]
	for i, c := range ctx.Cands {
		if c != cands[i] {
			return false
		}
		if ctx.Engine.PendingOpInfo(c.Tid) != ops[i] {
			return false
		}
	}
	return true
}

// advanceSleep updates the sleep set across one step: the frame's
// already-explored siblings go to sleep, then every sleeping move
// dependent on the chosen transition wakes up.
func (s *searcher) advanceSleep(ctx *engine.ChooseContext, fr *frame, chosen engine.Alt) {
	if !s.opts.SleepSets {
		return
	}
	for _, a := range s.alts(fr)[:fr.idx] {
		s.sleep.Add(por.MoveOf(ctx.Engine, a))
	}
	s.sleep.Step(por.MoveOf(ctx.Engine, chosen))
}

// admissible appends to dst the candidates the preemption budget
// (ContextBound) admits at this scheduling point, in candidate order:
// all of them while fewer than ContextBound preemptions have been used,
// then only those that do not consume one — the previous thread itself,
// and any candidate when the switch away from it is forced or voluntary.
// It is the one frontier filter: the searcher, a DPOR unit and frontier
// expansion must agree on it, since paths index into its result.
func (o *Options) admissible(dst []engine.Alt, ctx *engine.ChooseContext, preemptUsed int) []engine.Alt {
	if o.ContextBound < 0 || preemptUsed < o.ContextBound {
		return append(dst, ctx.Cands...)
	}
	n := len(dst)
	for _, a := range ctx.Cands {
		if !ctx.IsPreemption(a) {
			dst = append(dst, a)
		}
	}
	if len(dst) == n {
		// Cannot happen: if the previous thread is a candidate its
		// alternatives do not preempt, and if it is not a candidate the
		// switch is forced (or follows a voluntary yield), so IsPreemption
		// is false for every alternative.
		panic("search: empty alternative set under context bound")
	}
	return dst
}
