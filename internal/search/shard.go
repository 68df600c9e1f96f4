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
	"slices"
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
	// rangeMax is the largest range shard, in executions: a range in
	// flight is what a killed distributed worker, or a killed -p N
	// search, loses. Each range also costs a lease, a result post and a
	// ledger commit at the jobs service — about 0.5 ms and 850 bytes on a
	// 2-CPU x86-64 box — which at 4096 executions stays a few percent of
	// even a 7 µs execution's range.
	rangeMax = 4096
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
	// A prefix shard has no Hi, and a Lo, the global index of its first
	// execution, only in a serial plan (Plan.Serial).
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

// SavedPrefix is one frontier prefix of a systematic search's plan.
type SavedPrefix struct {
	Sched []engine.Alt        `json:"sched"`
	Digs  []engine.StepDigest `json:"digs,omitempty"`
	Leaf  bool                `json:"leaf,omitempty"`
	// Later lists, for the rest of a shard a serial plan's searcher paused
	// in (see runSerial), the alternatives its steps have yet to explore
	// after the ones Sched takes, by step in increasing order: the shard
	// covers their subtrees too, in the order the paused DFS would have
	// taken them.
	Later []LaterAlts `json:"later,omitempty"`
}

// LaterAlts are the alternatives step Step of a prefix shard explores
// after the one its Sched takes, with their pending ops when the prefix
// has a digest for that step.
type LaterAlts struct {
	Step int             `json:"step"`
	Alts []engine.Alt    `json:"alts"`
	Ops  []engine.OpInfo `json:"ops,omitempty"`
}

// Plan is the full, ordered shard list for one search. It is
// JSON-serializable so the jobs service and a checkpoint directory can
// record it and a coordinator can hand shards to remote workers.
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
	// Serial marks the local driver's plan at Parallelism 1, other than
	// DPOR's: its shards run one at a time in the merge loop, each
	// numbering its executions on from the merged ones, and one that
	// stops early after running anything — paused for a checkpoint, or
	// cut — merges what it ran, its report naming the shard for the rest
	// of it (Report.Rest), which the merge splices in after it.
	Serial bool `json:"serial,omitempty"`
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
	opts.CheckpointPath = ""
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.random() && opts.MaxExecutions <= 0 {
		return nil, errors.New("search: a distributed random/pct search needs MaxExecutions (a wall-clock budget cannot be sharded deterministically)")
	}
	return planShards(prog, &opts, refParallelism, false), nil
}

// planShards is PlanShards on validated single-shard options
// (Parallelism 1, no checkpoint, no Stop). A serial plan's systematic
// search is one shard, the whole tree: its searcher is the sequential
// one, split only where it pauses.
func planShards(prog func(*engine.T), opts *Options, refParallelism int, serial bool) *Plan {
	plan := &Plan{
		Strategy:       strategyOf(opts),
		RefParallelism: refParallelism,
		OptionsHash:    OptionsHash(opts),
		Serial:         serial,
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
	case serial:
		plan.Shards = []Shard{{Prefix: &SavedPrefix{}}}
	default:
		for i, pfx := range splitFrontier(prog, opts, planTargetFactor*refParallelism) {
			plan.Shards = append(plan.Shards, Shard{Index: i, Prefix: pfx})
		}
	}
	return plan
}

// growRanges appends range shards after the plan's last one (after
// index covered when nothing past merged is planned) until a lookahead
// of unmerged shards is planned or, with an execution budget, limit is
// covered. The chunks aim at the frontier split's shard count over the
// budget, but are never below rangeBatch nor above rangeMax: a chunk
// above it is split evenly, so the ranges still share out evenly
// between the workers.
func (p *Plan) growRanges(limit int64, merged int, covered int64) {
	target := int64(planTargetFactor * p.RefParallelism)
	chunk := max((limit+target-1)/target, rangeBatch)
	if chunk > rangeMax {
		n := target * ((chunk + rangeMax - 1) / rangeMax)
		chunk = (limit + n - 1) / n
	}
	if len(p.Shards) > merged {
		covered = p.Shards[len(p.Shards)-1].Hi
	}
	for (limit <= 0 || covered < limit) && int64(len(p.Shards)-merged) < target {
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
	opts.CheckpointPath = "" // a shard's owner records the merge
	if err := opts.Validate(); err != nil {
		// Internal misuse; fail loudly.
		panic(fmt.Sprintf("search: RunShard: %v", err))
	}
	return runShard(prog, &opts, sh, pool, time.Time{})
}

// ShardMerger folds shard reports into one merged report in plan
// order, applying the classify/stop semantics of the sequential search
// at shard granularity, and grows the plan where the search's shape is
// only discovered by running it (DPOR units, open-ended random walks,
// the rests of a serial plan's paused shards). Everything after a stop
// is discarded, so the merged report is independent of worker timing.
// It is not safe for concurrent use; the caller serializes Offer calls.
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

	// serial is the plan's (Plan.Serial): a subtree that stopped early
	// after running anything is consumed with what it ran, and the shard
	// its report names for the rest of it is spliced in after it.
	serial bool

	// DPOR: seen holds the path of every spawned unit and every prefix of
	// every consumed unit's full path — the Mazurkiewicz-trace dedup set
	// that keeps reversals from re-spawning explored subtrees. A spawned
	// child is appended to the plan: no owner offers reports over a plan
	// that already grew — every owner starts from the plan as planned, and
	// a resumed one folds its recorded decisions over it (Fold), which
	// regrows it the same way.
	//
	// Offer empties a unit once it is merged (slot and kind stay). No
	// owner reads it again: the driver and a coordinator hand out only
	// unmerged shards.
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
		serial:       plan.Serial,
	}
	if opts.DPOR {
		m.seen = pathTrie{{}} // the root unit's (empty) path
	}
	return m
}

// splice inserts rest, the shard for what a serial run of the shard
// being merged left unexplored, right after it, and renumbers the shards
// after it.
func (m *ShardMerger) splice(rest *Shard) {
	i := m.next + 1
	m.plan.Shards = slices.Insert(m.plan.Shards, i, *rest)
	for k := i; k < len(m.plan.Shards); k++ {
		m.plan.Shards[k].Index = k
	}
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
		if r != nil && r.Rest != nil {
			m.splice(r.Rest)
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
// resume re-explores it in full (a serial subtree's is kept, see
// serial), while a range's completed executions are kept and the range
// is not consumed.
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
	cut := r.cut(ranged)
	if cut {
		rep.TimedOut = rep.TimedOut || r.TimedOut
		rep.Interrupted = rep.Interrupted || r.Interrupted
		rep.ExecBounded = rep.ExecBounded || (r.ExecBounded && !ranged)
		m.stopped = true
		if !ranged && (!m.serial || r.Executions+r.Quarantined == 0) {
			return false
		}
	}
	// A subtree counts its executions from 1; a range and a serial
	// subtree by global index.
	base := rep.Executions
	if ranged || m.serial {
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
	return !cut || !ranged
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

// ConfirmFindings runs the post-search confirmation pass
// (Options.ConfirmRuns) over rep's schedule-backed findings, exactly
// as Explore does after a local search. The distributed coordinator
// calls it once on the merged report.
func ConfirmFindings(prog func(*engine.T), opts Options, rep *Report) {
	confirmReport(prog, &opts, rep)
}
