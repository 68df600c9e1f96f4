package search

// This file is the sharding layer every parallel search runs on: local
// -p N and DPOR (driver.go), the distributed coordinator (internal/dist)
// and the jobs service above it. A search is an ordered Plan of shards —
// contiguous execution-index ranges for the random strategies, frontier
// prefixes for the systematic ones, race-reversal work units for DPOR —
// each run by the sequential searcher (or, for a unit, one execution),
// possibly in another process, and merged back strictly in plan order by
// the ShardMerger. Because planning, running and merging are the same
// code wherever the shards execute, a distributed run's merged report is
// byte-identical to a local Parallelism=N run of the same seed and
// configuration.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/por"
)

const (
	// rangeBatch is the smallest range shard, in executions: small
	// enough to stop soon after a finding, large enough to amortize the
	// hand-off.
	rangeBatch = 32
	// planTargetFactor sizes a plan at planTargetFactor×P shards (and an
	// open-ended walk's lookahead at as many unmerged ones), bounding
	// idle tail time when shard sizes are skewed.
	planTargetFactor = 8
)

// Shard is one unit of distributable work.
//
// For the random strategies (RandomWalk, PCT) a shard is the closed
// range of global execution indices [Lo, Hi]; executions are seeded by
// index, so the range fully determines the work. For the systematic
// strategies a shard is one frontier prefix: the worker explores
// exactly the subtree below it. For DPOR a shard is one work unit
// (one execution); DPOR plans grow as the merge discovers race
// reversals — the ShardMerger appends child shards in a deterministic
// order, so every process derives the identical plan.
type Shard struct {
	// Index is the shard's position in the plan; reports are merged in
	// Index order.
	Index int `json:"index"`
	// Lo and Hi bound the execution-index range (random strategies).
	Lo int64 `json:"lo,omitempty"`
	Hi int64 `json:"hi,omitempty"`
	// Prefix is the frontier prefix (systematic strategies).
	Prefix *SavedPrefix `json:"prefix,omitempty"`
	// Unit is the DPOR work unit (DPOR searches).
	Unit *por.Unit `json:"unit,omitempty"`
}

// kind names the shard's kind, as WorkerFailure.Mode reports it.
func (sh *Shard) kind() string {
	switch {
	case sh.Unit != nil:
		return "dpor"
	case sh.Prefix != nil:
		return "prefix"
	default:
		return "stride"
	}
}

// Plan is the full, ordered shard list for one search. It is
// JSON-serializable so the jobs service can record it in its ledger and
// a coordinator can hand shards to remote workers.
type Plan struct {
	// Strategy is the canonical strategy name (StrategyName).
	Strategy string `json:"strategy"`
	// RefParallelism is the local Parallelism the plan mirrors: the
	// merged report is byte-identical to a local run with
	// Parallelism=RefParallelism.
	RefParallelism int `json:"refParallelism"`
	// OptionsHash fingerprints the semantic options the plan was built
	// from (see OptionsHash); workers recompute it from their own
	// options and refuse to run a plan that does not match.
	OptionsHash uint64  `json:"optionsHash"`
	Shards      []Shard `json:"shards"`
}

// PlanShards splits the search defined by opts into distributable
// shards. refParallelism picks which local parallel run the plan (and
// therefore the merged report) mirrors; the shard count is the same
// work-unit granularity the local driver uses for that parallelism.
//
// The random strategies require MaxExecutions: a wall-clock budget
// cannot be partitioned into deterministic index ranges. (The local
// driver can run such a walk — its plan grows as the merge advances —
// but a plan that depends on when the clock struck cannot be shared.)
func PlanShards(prog func(*engine.T), opts Options, refParallelism int) (*Plan, error) {
	if refParallelism < 1 {
		refParallelism = 1
	}
	opts.Parallelism = 1
	opts.Stop = nil
	opts.Resume = nil
	opts.CheckpointPath = ""
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.random() && opts.MaxExecutions <= 0 {
		return nil, errors.New("search: a distributed random/pct search needs MaxExecutions (a wall-clock budget cannot be sharded deterministically)")
	}
	return planShards(prog, &opts, refParallelism), nil
}

// planShards is PlanShards on validated single-shard options
// (Parallelism 1, no checkpoint, no Stop).
func planShards(prog func(*engine.T), opts *Options, refParallelism int) *Plan {
	plan := &Plan{
		Strategy:       strategyOf(opts),
		RefParallelism: refParallelism,
		OptionsHash:    optionsHash(opts),
	}
	switch {
	case opts.DPOR:
		// DPOR plans start with the single root unit; the merge appends
		// a child shard per undiscovered race reversal as unit reports
		// come in, in an order that is a function of the reports alone —
		// every merger derives the same grown plan.
		plan.Shards = []Shard{{Unit: &por.Unit{}}}
	case opts.random():
		plan.growRanges(opts.MaxExecutions, 0, 0)
	default:
		for i, pfx := range splitFrontier(prog, opts, planTargetFactor*refParallelism) {
			plan.Shards = append(plan.Shards, Shard{Index: i, Prefix: pfx})
		}
	}
	return plan
}

// growRanges appends range shards after the plan's last one (after
// index covered when nothing past merged is planned): through limit
// when there is an execution budget — in chunks aiming at the frontier
// split's shard count but never below rangeBatch — else, for a walk only
// the clock bounds, until a lookahead of unmerged shards is planned.
func (p *Plan) growRanges(limit int64, merged int, covered int64) {
	target := int64(planTargetFactor * p.RefParallelism)
	chunk := int64(rangeBatch)
	if c := (limit + target - 1) / target; c > chunk {
		chunk = c
	}
	if n := len(p.Shards); n > merged {
		covered = p.Shards[n-1].Hi
	}
	for (limit > 0 && covered < limit) || (limit <= 0 && int64(len(p.Shards)-merged) < target) {
		hi := covered + chunk
		if limit > 0 && hi > limit {
			hi = limit
		}
		p.Shards = append(p.Shards, Shard{Index: len(p.Shards), Lo: covered + 1, Hi: hi})
		covered = hi
	}
}

// runShard executes one shard on the caller's engine pool and returns
// its report, ready for ShardMerger.Offer. It is the single shard
// executor: the local driver's workers, RunShard and the distributed
// worker all end up here.
//
// A range shard runs the sequential searcher over its global index
// range, so every execution gets the same per-index seed as in a
// sequential run; its counters are the shard's own, its finding indices
// (FirstBugExecution etc.) global. A prefix shard runs the searcher over
// the subtree below the prefix, a unit shard runs one execution.
//
// deadline, when nonzero, is the search's shared wall-clock bound, and
// opts.Stop, when non-nil, cancels the shard: both are polled between
// executions and inside them. A shard cut by either returns with
// TimedOut or Interrupted set.
func runShard(prog func(*engine.T), opts *Options, sh Shard, pool *engine.Pool,
	deadline time.Time) *Report {
	if sh.Unit == nil {
		return runSearcher(prog, opts, sh, pool, deadline)
	}
	if isClosed(opts.Stop) {
		return &Report{Interrupted: true}
	}
	return runDporUnit(prog, opts, pool, sh.Unit, deadline)
}

// RunShard executes one shard to completion on a fresh engine and
// returns its report, ready for ShardMerger.Offer.
//
// Range shards honor opts.CheckpointPath/opts.Resume for worker-local
// per-shard checkpointing; prefix and unit shards ignore them (a prefix
// subtree reruns from scratch, a unit is one execution).
//
// stop, when non-nil, cancels the shard, between executions or inside
// one; a cancelled shard returns with Interrupted set and must not be
// merged.
//
// A shard never sets opts.Metrics' Frontier gauge, with or without a
// stop channel: the gauge is the whole search's, published by whoever
// sees every shard — the driver's merge loop — or by the unrestricted
// sequential search.
func RunShard(prog func(*engine.T), opts Options, sh Shard, stop <-chan struct{}) *Report {
	var pool engine.Pool
	defer pool.Close()
	return RunShardOn(&pool, prog, opts, sh, stop)
}

// RunShardOn is RunShard on a caller-owned engine pool, which a
// long-lived worker reuses across shards (and searches: the pool takes
// the program per run). The pool must not be shared between goroutines.
func RunShardOn(pool *engine.Pool, prog func(*engine.T), opts Options, sh Shard, stop <-chan struct{}) *Report {
	opts.Parallelism = 1
	opts.TimeLimit = 0
	opts.ConfirmRuns = 0 // the coordinator confirms the merged findings
	opts.Stop = stop
	if sh.Hi == 0 {
		opts.CheckpointPath = ""
		opts.Resume = nil
	}
	if err := opts.Validate(); err != nil {
		// Internal misuse or a corrupt worker-local checkpoint the
		// caller should have validated; fail loudly.
		panic(fmt.Sprintf("search: RunShard: %v", err))
	}
	return runShard(prog, &opts, sh, pool, time.Time{})
}

// ValidateShardResume reports whether a worker-local checkpoint can
// resume the given range shard: it must belong to the same search
// (program, strategy, seed, options hash), be non-terminal, and sit
// inside the shard's index range.
func ValidateShardResume(opts *Options, sh Shard, ck *Checkpoint) error {
	if sh.Hi == 0 {
		return errors.New("search: only range shards support checkpoint resume")
	}
	if ck.Done {
		return errors.New("search: shard checkpoint is terminal")
	}
	if ck.Stride == nil {
		return errors.New("search: shard checkpoint lacks the random-strategy position")
	}
	o := *opts
	o.Parallelism = 1
	if ck.Meta.Strategy != strategyOf(&o) || ck.Meta.Seed != o.Seed ||
		ck.Meta.OptionsHash != optionsHash(&o) || ck.Meta.Program != o.ProgramName {
		return errors.New("search: shard checkpoint belongs to a different search")
	}
	// The checkpoint's counters are the shard's own, so its position is
	// Lo plus the executions it has run.
	if next := ck.Stride.NextIndex; next != sh.Lo+ck.Counters.Executions || next > sh.Hi+1 {
		return fmt.Errorf("search: shard checkpoint at execution %d (%d run) does not fit shard [%d,%d]",
			next, ck.Counters.Executions, sh.Lo, sh.Hi)
	}
	return nil
}

// ShardMerger folds shard reports into one merged report in plan
// order, applying the classify/stop semantics of the sequential search
// at shard granularity, and grows the plan where the search's shape is
// only discovered by running it (DPOR units, open-ended random walks).
// Everything after a stop is discarded, so the merged report is
// independent of worker timing. It is not safe for concurrent use; the
// caller serializes Offer calls.
type ShardMerger struct {
	opts    Options
	plan    *Plan
	rep     *Report
	pending map[int]*Report
	next    int

	// allExhausted is false once any shard was skipped, quarantined or
	// otherwise left part of its space unexplored.
	allExhausted bool
	stopped      bool
	done         bool // the stop is terminal (a finding), not a budget cut

	// DPOR: seen holds the path of every spawned unit and every prefix of
	// every consumed unit's full path — the Mazurkiewicz-trace dedup set
	// that keeps reversals from re-spawning explored subtrees; its leaves
	// are its checkpointable form. A spawned child is appended to the
	// plan: no owner offers reports over a plan that already grew — the
	// local driver plans afresh, a checkpoint resume restores only the
	// unmerged rest, and a jobs restart re-offers decided reports over
	// the recorded root plan (dist.Prior), which regrows the same way.
	//
	// Offer empties a unit once it is merged (slot and kind stay). No
	// owner reads it again: the local driver and a checkpoint hold only
	// unmerged shards, and a coordinator leases only undecided ones.
	seen pathTrie
}

// NewShardMerger prepares a merger for the given plan. opts must be
// the same options the plan was built from.
func NewShardMerger(opts Options, plan *Plan) *ShardMerger {
	m := &ShardMerger{
		opts:         opts,
		plan:         plan,
		rep:          &Report{},
		pending:      make(map[int]*Report),
		allExhausted: true,
	}
	if opts.DPOR {
		m.seen = pathTrie{{}} // the root unit's (empty) path
	}
	return m
}

// restore re-seeds a fresh merger (over an empty plan) from a
// checkpoint: the merged report so far and the unmerged rest of the
// plan, at its original indices. Range shards are not stored — they are
// re-planned from the first index the checkpoint does not cover, against
// the resumed search's own budget.
func (m *ShardMerger) restore(ck *Checkpoint) {
	*m.rep = ck.report()
	f := ck.Frontier
	m.plan.Shards = append(make([]Shard, f.Merged), f.Shards...)
	m.next = f.Merged
	m.allExhausted = f.AllExhausted
	for _, tr := range f.Traces {
		m.seen.addPath(append(tr.Path[:len(tr.Path):len(tr.Path)], tr.Cont...))
	}
	for _, sh := range f.Shards {
		if sh.Unit != nil {
			m.seen.addPath(sh.Unit.Path)
		}
	}
	m.growRanges()
}

// frontier is the merger's checkpointable position (see restore).
func (m *ShardMerger) frontier() *Frontier {
	f := &Frontier{Merged: m.next, AllExhausted: m.allExhausted}
	if !m.opts.random() {
		f.Shards = m.plan.Shards[m.next:]
	}
	if m.opts.DPOR {
		f.Traces = m.seen.leaves(0, nil, nil)
	}
	return f
}

// growRanges keeps a random search's plan ahead of the merge. Every
// index below the first unmerged shard was either executed or skipped,
// which is where planning resumes when nothing unmerged is left.
func (m *ShardMerger) growRanges() {
	if m.opts.random() && !m.stopped {
		m.plan.growRanges(m.opts.MaxExecutions, m.next, m.rep.Executions+m.rep.Skipped)
	}
}

// Offer hands the merger shard idx's report; nil records a shard
// abandoned after repeated failures (explicit coverage loss). Reports
// may arrive in any order; the merger buffers them and merges each as
// its turn comes. Offers at or past a stop, and duplicate offers, are
// ignored.
func (m *ShardMerger) Offer(idx int, r *Report) {
	if m.stopped || idx < m.next || idx >= len(m.plan.Shards) {
		return
	}
	if _, dup := m.pending[idx]; dup {
		return
	}
	m.pending[idx] = r
	for !m.stopped && m.next < len(m.plan.Shards) {
		sh := &m.plan.Shards[m.next]
		if sh.Hi == 0 && m.opts.MaxExecutions > 0 && m.rep.Executions >= m.opts.MaxExecutions {
			// The pre-execution budget check of the sequential loop, at
			// shard granularity. (Range shards carry the budget in their
			// bounds.)
			m.rep.ExecBounded = true
			m.stopped = true
			return
		}
		r, ok := m.pending[m.next]
		if !ok {
			return
		}
		delete(m.pending, m.next)
		if !m.merge(sh, r) {
			return
		}
		if sh.Unit != nil {
			m.spawn(sh.Unit, r)
			*sh.Unit = por.Unit{} // merged: release the schedule (see ShardMerger)
		}
		m.next++
		m.growRanges()
	}
}

// merge folds one shard report into the merged report, mirroring the
// sequential classify/stop semantics at shard granularity. It reports
// whether the shard was consumed; false only for a shard cut short by a
// budget, the deadline or a cancellation, which stops the merge
// resumably: a subtree's or unit's partial coverage is discarded so a
// resume re-explores it in full, while a range's completed executions
// are kept (a resume re-plans from the first index not yet run).
//
// r == nil records a shard abandoned after repeated worker crashes: the
// coverage loss is explicit (Skipped) and the tree can no longer be
// called exhausted.
func (m *ShardMerger) merge(sh *Shard, r *Report) bool {
	rep, ranged := m.rep, sh.Hi > 0
	if r == nil {
		rep.Skipped++
		if ranged {
			rep.Skipped += sh.Hi - sh.Lo
		}
		m.allExhausted = false
		return true
	}
	// A finished range is ExecBounded by construction (its budget is Hi).
	cut := r.TimedOut || r.Interrupted || (r.ExecBounded && !ranged)
	if cut {
		rep.TimedOut = rep.TimedOut || r.TimedOut
		rep.Interrupted = rep.Interrupted || r.Interrupted
		rep.ExecBounded = rep.ExecBounded || (r.ExecBounded && !ranged)
		m.stopped = true
		if !ranged {
			return false
		}
	}
	// A subtree counts its executions from 1; a range by global index.
	base := rep.Executions
	if ranged {
		base = 0
	}
	if r.FirstBug != nil && rep.FirstBug == nil {
		rep.FirstBug, rep.FirstBugExecution = r.FirstBug, base+r.FirstBugExecution
	}
	if r.Divergence != nil && rep.Divergence == nil {
		rep.Divergence, rep.DivergenceExecution = r.Divergence, base+r.DivergenceExecution
	}
	if r.FirstWedge != nil && rep.FirstWedge == nil {
		rep.FirstWedge, rep.FirstWedgeExecution = r.FirstWedge, base+r.FirstWedgeExecution
	}
	rep.Counters.merge(&r.Counters)
	// Quarantined subtrees merge in plan order, so the nondeterminism
	// reports are deterministic regardless of worker timing.
	rep.Nondeterminism = append(rep.Nondeterminism, r.Nondeterminism...)
	if !r.Exhausted {
		m.allExhausted = false
	}
	// A finding the shard's searcher stopped on stops the merge where
	// the sequential search would have stopped.
	if ((r.FirstBug != nil || r.FirstWedge != nil) && !m.opts.ContinueAfterViolation) ||
		(r.Divergence != nil && !m.opts.ContinueAfterDivergence) {
		m.stopped, m.done = true, true
	}
	return !cut
}

// interrupt stops the merge where it stands; the search stays resumable.
func (m *ShardMerger) interrupt() {
	if !m.stopped {
		m.rep.Interrupted = true
		m.stopped = true
	}
}

// Merged returns how many shards have been consumed.
func (m *ShardMerger) Merged() int { return m.next }

// Horizon is the merge's cancellation horizon: shards with index >=
// Horizon will never be merged.
func (m *ShardMerger) Horizon() int {
	if m.stopped {
		return m.next
	}
	return len(m.plan.Shards)
}

// Done reports that the merge is complete: every shard consumed, or a
// terminal stop reached.
func (m *ShardMerger) Done() bool {
	return m.stopped || m.next == len(m.plan.Shards)
}

// Finish seals the merge and returns the final report, applying the
// end-of-search classification of the sequential search. failures (in
// any order) become the report's WorkerFailures, sorted by (Unit,
// Attempt) so the report is deterministic regardless of worker timing.
func (m *ShardMerger) Finish(elapsed time.Duration, failures []WorkerFailure) *Report {
	complete := !m.stopped && m.next == len(m.plan.Shards)
	if m.opts.random() {
		// Every index in [1, MaxExecutions] has been merged (or
		// explicitly skipped): the execution budget is spent.
		m.rep.ExecBounded = m.rep.ExecBounded || complete
	} else {
		m.rep.Exhausted = complete && m.allExhausted
	}
	fs := append([]WorkerFailure(nil), failures...)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Unit != fs[j].Unit {
			return fs[i].Unit < fs[j].Unit
		}
		return fs[i].Attempt < fs[j].Attempt
	})
	m.rep.WorkerFailures = fs
	m.rep.Elapsed = elapsed
	return m.rep
}

// OptionsHash exposes the semantic-options fingerprint checkpoints
// carry (budget and operational fields excluded). The distributed
// protocol uses it to reject configuration skew between coordinator
// and workers before any work is handed out.
func OptionsHash(o *Options) uint64 {
	oo := *o
	oo.Parallelism = 1
	return optionsHash(&oo)
}

// ConfirmFindings runs the post-search confirmation pass
// (Options.ConfirmRuns) over rep's schedule-backed findings, exactly
// as Explore does after a local search. The distributed coordinator
// calls it once on the merged report.
func ConfirmFindings(prog func(*engine.T), opts Options, rep *Report) {
	confirmReport(prog, &opts, rep)
}
