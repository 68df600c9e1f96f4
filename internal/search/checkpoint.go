package search

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strconv"
	"time"

	"fairmc/internal/ledger"
	"fairmc/internal/obs"
	"fairmc/internal/por"
)

// This file is the one durable record of a search's progress. A
// stateless search keeps nothing between executions, so what it has done
// is which shards of its plan are merged, with which reports, and that is
// all it records: its plan, then one shard_done record per shard report,
// appended before the merge takes the report. The jobs service keeps its
// jobs' records in its write-ahead log (internal/dist/jobs). With
// Options.CheckpointPath set, the sharded driver keeps one search's in an
// internal/ledger directory of its own, so a crash, a kill -9 or a
// deliberate SIGINT loses the shards in flight — at Parallelism 1, where
// the one shard pauses for every due checkpoint and its report names its
// rest, at most one interval. Either way the records are read back the
// same way: the plan as recorded, then every decision offered to the
// merger in ledger order (Fold), so the plan regrows — DPOR spawns,
// random ranges, the rests of paused shards — exactly as it grew when the
// records were written, and the merged report is the uninterrupted one.
// Rerunning a search over its directory resumes it; over a finished
// search it merges the recorded reports and runs nothing.

// Record types, as the service's write-ahead log names them.
const (
	RecPlan      = "job_plan"
	RecShardDone = "shard_done"
)

// PlanRec records a search's shard plan. The plan is recorded, never
// re-derived: a resumed search runs exactly the shards the original
// planning produced.
type PlanRec struct {
	Job         string
	OptionsHash uint64
	Plan        *Plan
	// Spec is the search a checkpoint directory belongs to (the service
	// records its jobs' in their submissions). A later plan record with no
	// Plan starts a run that planned a random search's unmerged ranges
	// again, against Spec's budget (replan).
	Spec *Options
}

// ShardDoneRec records one decided shard: a completed report, or an
// abandonment (Report nil, Abandoned the reason).
type ShardDoneRec struct {
	Job         string
	OptionsHash uint64
	Shard       int
	Report      *Report
	Abandoned   string
	// Raw is Report's encoding as a worker posted it, when it was posted:
	// the record splices it in instead of encoding the report again.
	Raw []byte
}

// defaultCheckpointInterval is used when CheckpointPath is set but
// CheckpointInterval is zero.
const defaultCheckpointInterval = 30 * time.Second

// checkpointHook, when non-nil, is called after every append ("append")
// and every sync ("sync") of a checkpoint ledger: the crash matrix
// freezes the ledger there, the disk's view of kill -9.
var checkpointHook func(event string, l *ledger.Ledger)

// StrategyName returns the canonical name of the enumeration strategy
// the options select: "random", "pct", or "dfs" (any systematic
// search). It is the same name plans and run reports carry.
func StrategyName(o *Options) string {
	switch {
	case o.RandomWalk:
		return "random"
	case o.PCT:
		return "pct"
	default:
		return "dfs"
	}
}

// semantic is the spec less the operational settings a rerun may change
// (execution budget, retry, confirmation, watchdog and checkpoint
// interval). An SC search is the same whether or not it names its model,
// a DPOR search whether or not it names the sleep sets it always carries.
func (o *Options) semantic() Options {
	s := o.Spec()
	s.MaxExecutions, s.DivergenceRetries, s.ConfirmRuns = 0, 0, 0
	s.Watchdog, s.CheckpointInterval = 0, 0
	s.SleepSets = s.SleepSets && !s.DPOR
	if s.MemModel == "sc" {
		s.MemModel = ""
	}
	if s.MemModel == "" {
		s.TSOBufCap = 0
	}
	return s
}

// OptionsHash fingerprints the options that determine the schedule
// enumeration: FNV-1a over the JSON of their semantic part, program name
// aside, after DPOR's enumeration revision and unit codec version for a
// DPOR search (an older build's DPOR plan is another version's). Plans
// and ledger records carry it, and a worker refuses a plan whose hash is
// not its own.
func OptionsHash(o *Options) uint64 {
	s := o.semantic()
	s.ProgramName = ""
	data, _ := json.Marshal(s) // plain data: cannot fail
	h := fnv.New64a()
	if s.DPOR {
		h.Write([]byte(dporSalt))
	}
	h.Write(data)
	return h.Sum64()
}

var dporSalt = "dpor/sleep+yield\ncodec " + strconv.Itoa(por.CodecVersion) + "\n"

// ReadPlan returns the first plan record in the checkpoint directory dir
// — the search the directory belongs to — or nil when it holds none yet.
// A plan or shard_done record this build cannot decode is another
// version's, and refuses the directory.
func ReadPlan(dir string) (*PlanRec, error) {
	led, rec, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		return nil, fmt.Errorf("search: checkpoint: %w", err)
	}
	defer led.Close()
	var first *PlanRec
	for _, r := range rec.Records {
		pr, _, err := decodeRecord(r)
		if err != nil {
			return nil, err
		}
		if first == nil && pr != nil && pr.Plan != nil {
			first = pr
		}
	}
	return first, nil
}

// decodeRecord decodes r when it is a plan record that names its search
// or a shard_done record. Either that does not decode was written by
// another version: it is refused, never skipped.
func decodeRecord(r ledger.Record) (pr *PlanRec, d *ShardDoneRec, err error) {
	switch r.Type {
	case RecPlan:
		pr, err = DecodePlanRec(r.Data)
	case RecShardDone:
		d, err = DecodeShardDone(r.Data)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("search: the checkpoint's %s record %d does not decode (written by another version): %v", r.Type, r.Seq, err)
	}
	if pr != nil && pr.Spec == nil {
		pr = nil
	}
	return pr, d, nil
}

// Matches reports whether rec records the search o describes, as an
// error naming the first option that differs: the program and every
// option that shapes the schedule space, then the parallelism the plan
// mirrors. Budgets and the other operational settings may change from
// run to run. A plan o could not have made is refused too.
func (o *Options) Matches(rec *PlanRec) error {
	var there, here map[string]any
	a, _ := json.Marshal(rec.Spec.semantic())
	b, _ := json.Marshal(o.semantic())
	json.Unmarshal(a, &there)
	json.Unmarshal(b, &here)
	keys := make([]string, 0, len(there)+len(here))
	for k := range there {
		keys = append(keys, k)
	}
	for k := range here {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	show := func(v any) any {
		if v == nil {
			return "unset"
		}
		return v
	}
	for _, k := range keys {
		if !reflect.DeepEqual(there[k], here[k]) {
			return fmt.Errorf("search: the checkpoint records another search: %s is %v there, %v here", k, show(there[k]), show(here[k]))
		}
	}
	if p := max(o.Parallelism, 1); rec.Plan.RefParallelism != p {
		return fmt.Errorf("search: the checkpoint records another search: parallelism is %d there, %d here", rec.Plan.RefParallelism, p)
	}
	if h := OptionsHash(o); rec.OptionsHash != h || rec.Plan.OptionsHash != h {
		return fmt.Errorf("search: the checkpoint's options hash %#x is not this build's %#x (written by another version)", rec.OptionsHash, h)
	}
	return rec.Plan.check(o)
}

// check reports why a recorded plan is not one o makes: shards numbered
// from 0, of the one kind o's strategy plans and each well formed,
// ranges contiguous from index 1, serial exactly when the driver runs
// o's shards one at a time.
func (p *Plan) check(o *Options) error {
	kind := "prefix"
	switch {
	case o.DPOR:
		kind = "dpor"
	case o.random():
		kind = "stride"
	}
	if len(p.Shards) == 0 || p.Serial != (o.Parallelism <= 1 && !o.DPOR) {
		return fmt.Errorf("search: the checkpoint's plan of %d shards (serial %v) is not this search's (corrupted checkpoint)", len(p.Shards), p.Serial)
	}
	var hi int64
	for i := range p.Shards {
		sh := &p.Shards[i]
		if err := sh.check(); err != nil {
			return err
		}
		if sh.Index != i || sh.kind() != kind || (kind == "stride" && sh.Lo != hi+1) {
			return fmt.Errorf("search: plan shard %d is %s shard %d from %d, want %s shard %d (corrupted checkpoint)",
				i, sh.kind(), sh.Index, sh.Lo, kind, i)
		}
		hi = sh.Hi
	}
	return nil
}

// check reports why a shard read from a record could not have been
// planned: a range that is empty or starts before index 1, a unit with
// bounds or whose path and schedule disagree, or a prefix with an upper
// bound or whose Later lists do not fit its steps — each step with
// alternatives left lists them once, in step order, with an op apiece
// exactly when the step has a digest, as the searcher's frames need them.
func (sh *Shard) check() error {
	switch {
	case sh.Unit != nil:
		if u := sh.Unit; len(u.Path) != len(u.Sched) || sh.Lo != 0 || sh.Hi != 0 {
			return fmt.Errorf("search: unit shard %d has bounds [%d, %d], a path of %d steps and a schedule of %d (corrupted checkpoint)",
				sh.Index, sh.Lo, sh.Hi, len(u.Path), len(u.Sched))
		}
	case sh.Prefix != nil:
		p, prev := sh.Prefix, -1
		for _, l := range p.Later {
			ops := 0
			if l.Step < len(p.Digs) {
				ops = len(l.Alts)
			}
			if l.Step <= prev || l.Step >= len(p.Sched) || len(l.Alts) == 0 || len(l.Ops) != ops || sh.Hi != 0 {
				return fmt.Errorf("search: prefix shard %d lists %d alternatives with %d ops left at step %d (corrupted checkpoint)",
					sh.Index, len(l.Alts), len(l.Ops), l.Step)
			}
			prev = l.Step
		}
	case sh.Lo < 1 || sh.Hi < sh.Lo:
		return fmt.Errorf("search: range shard %d is [%d, %d] (corrupted checkpoint)", sh.Index, sh.Lo, sh.Hi)
	}
	return nil
}

// Fold offers recorded decisions to the merger, in ledger order: the one
// way a merger is seeded from recorded progress, the service's and a
// checkpoint directory's alike. Ledger order is causal — a DPOR unit's
// decision follows the one that spawned it — so every decision finds its
// shard planned. A decision that could not have been recorded at its
// point (Check) is skipped, and its shard runs again.
func (m *ShardMerger) Fold(done ...ShardDoneRec) {
	for i := range done {
		if d := &done[i]; m.Check(d) == nil {
			m.Offer(d.Shard, d.Report)
		}
	}
}

// Check reports why d could not have been recorded for this merge at
// this point: a shard the plan does not hold, an abandonment without its
// reason, or a report inconsistent in itself — counts a merge cannot
// hold, a rest of another kind than its shard or outside a serial plan,
// a DPOR payload whose parts disagree. A decision read back from a
// ledger and one a worker posts pass the same check before the merge
// sees them.
func (m *ShardMerger) Check(d *ShardDoneRec) error {
	r := d.Report
	switch {
	case d.Shard < 0 || d.Shard >= len(m.plan.Shards):
		return fmt.Errorf("search: a decision for shard %d of a plan of %d", d.Shard, len(m.plan.Shards))
	case r == nil && d.Abandoned == "":
		return fmt.Errorf("search: shard %d decided with neither a report nor a reason", d.Shard)
	case r == nil:
		return nil
	case r.Executions < 0 || r.Skipped < 0 || r.Quarantined != int64(len(r.Nondeterminism)):
		return fmt.Errorf("search: shard %d counts %d executions, %d skipped and %d quarantined with %d reports (corrupted checkpoint)",
			d.Shard, r.Executions, r.Skipped, r.Quarantined, len(r.Nondeterminism))
	case r.Rest != nil && (!m.serial || r.Rest.kind() != m.plan.Shards[d.Shard].kind()):
		return fmt.Errorf("search: shard %d's report names a %s rest (serial plan %v)", d.Shard, r.Rest.kind(), m.serial)
	case r.Rest != nil:
		return r.Rest.check()
	}
	// A decoded node's alternatives and moves pair up by construction.
	if dp := r.Dpor; dp != nil && len(dp.Cont) != len(dp.ContIdx) {
		return fmt.Errorf("search: shard %d's DPOR payload does not fit together (corrupted checkpoint)", d.Shard)
	}
	return nil
}

// Decided reports whether shard idx's decision has reached the merge:
// merged, or waiting its turn.
func (m *ShardMerger) Decided(idx int) bool {
	_, waiting := m.pending[idx]
	return idx < m.next || waiting
}

// checkpoint is the driver's handle on a checkpoint directory: the ledger
// it appends the merge's progress to, and what the runs before this one
// spent. Without a directory it records nothing.
type checkpoint struct {
	opts    *Options
	led     *ledger.Ledger
	hash    uint64
	elapsed time.Duration // the wall time the recorded runs spent
	err     error         // the first failure: the run goes on unrecorded
}

// openCheckpoint returns the merger a search starts from and its
// checkpoint. With no directory, or an empty one, that is the merger of
// a fresh plan, whose record opens the ledger. Over a directory holding
// this search's records it is the merger they fold into: a random
// search's ranges regrow against each run's own budget, then are planned
// again against this run's (replan). A directory the ledger cannot open,
// or that records another search, is left alone: the search runs
// unrecorded and reports why, and so is one holding a record this build
// cannot decode.
func openCheckpoint(opts *Options, plan func() *Plan) (*ShardMerger, *checkpoint) {
	ck := &checkpoint{opts: opts, hash: OptionsHash(opts)}
	if opts.CheckpointPath == "" {
		return NewShardMerger(*opts, plan()), ck
	}
	led, rec, err := ledger.Open(opts.CheckpointPath, ledger.Options{Metrics: opts.Metrics})
	if err != nil {
		ck.err = err
		return NewShardMerger(*opts, plan()), ck
	}
	ck.led = led
	var m *ShardMerger
	for _, r := range rec.Records {
		pr, d, err := decodeRecord(r)
		if err != nil {
			ck.fail(err)
			return NewShardMerger(*opts, plan()), ck
		}
		if pr != nil {
			o := *opts
			if o.random() {
				o.MaxExecutions = pr.Spec.MaxExecutions
			}
			switch {
			case m != nil:
				m.replan(o.MaxExecutions)
			case pr.Plan != nil:
				if err := opts.Matches(pr); err != nil {
					ck.fail(err)
					return NewShardMerger(*opts, plan()), ck
				}
				m = NewShardMerger(o, pr.Plan)
			}
			continue
		}
		if m != nil && d != nil {
			m.Fold(*d)
			if d.Report != nil {
				ck.elapsed = max(ck.elapsed, d.Report.Elapsed)
			}
		}
	}
	spec := opts.Spec()
	if m == nil {
		m = NewShardMerger(*opts, plan())
		ck.append(RecPlan, &PlanRec{OptionsHash: ck.hash, Plan: m.plan, Spec: &spec})
		return m, ck
	}
	if sink := opts.EventSink; sink != nil {
		sink.Emit(obs.Event{Type: "resume", Checkpoint: &obs.CheckpointEvent{
			Path:       opts.CheckpointPath,
			Executions: m.rep.Executions,
		}})
	}
	m.replan(opts.MaxExecutions)
	if opts.random() {
		ck.append(RecPlan, &PlanRec{OptionsHash: ck.hash, Spec: &spec})
	}
	return m, ck
}

// replan sets the merge's execution budget to limit. A random search's
// unmerged ranges, and the reports waiting for them, are dropped and
// planned again from the first index not yet run, against it.
func (m *ShardMerger) replan(limit int64) {
	m.opts.MaxExecutions = limit
	if m.opts.random() {
		m.plan.Shards = m.plan.Shards[:m.next]
		clear(m.pending)
		m.growRanges()
	}
}

// append adds a record to the ledger, unsynced: the next sync makes it
// durable.
func (c *checkpoint) append(typ string, rec interface{ Encode([]byte) ([]byte, error) }) {
	if c.led == nil {
		return
	}
	data, err := rec.Encode(nil)
	if err == nil {
		_, err = c.led.Append(typ, data, false)
	}
	if err != nil {
		c.fail(err)
	} else if checkpointHook != nil {
		checkpointHook("append", c.led)
	}
}

// done records the attempt res at shard sh as the merge is about to take
// it: its report, or the shard's abandonment. A report the merge takes
// only in part — a shard cut short with no rest — goes unrecorded, and
// its shard runs again; one cut short with its rest is recorded as the
// pause it is from then on. The report carries the search's time so far.
func (c *checkpoint) done(res *shardResult, sh *Shard, elapsed time.Duration) {
	if c.led == nil {
		return
	}
	d := ShardDoneRec{OptionsHash: c.hash, Shard: res.idx}
	switch r := res.rep; {
	case r == nil:
		d.Abandoned = "crashed on every attempt: " + res.fail.Panic
	case r.cut(sh.Hi > 0) && r.Rest == nil:
		return
	default:
		rec := *r
		rec.TimedOut, rec.Interrupted, rec.ExecBounded, rec.Elapsed = false, false, false, elapsed
		d.Report = &rec
	}
	c.append(RecShardDone, &d)
}

// sync makes the records appended so far durable — a checkpoint, due or
// at the end of the run — and publishes it to the observability layer.
func (c *checkpoint) sync(executions int64) {
	if c.led == nil {
		return
	}
	if err := c.led.Sync(); err != nil {
		c.fail(err)
		return
	}
	if checkpointHook != nil {
		checkpointHook("sync", c.led)
	}
	if m := c.opts.Metrics; m != nil {
		m.Checkpoints.Inc()
	}
	if sink := c.opts.EventSink; sink != nil {
		sink.Emit(obs.Event{Type: "checkpoint", Checkpoint: &obs.CheckpointEvent{
			Path:       c.opts.CheckpointPath,
			Executions: executions,
		}})
	}
}

// fail records the first failure and lets the ledger go: losing
// resumability is better than losing the run.
func (c *checkpoint) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	if c.led != nil {
		c.led.Close()
		c.led = nil
	}
}

// close ends the run's records with a checkpoint and reports a failure
// on rep.
func (c *checkpoint) close(rep *Report) {
	c.sync(rep.Executions)
	if c.led != nil {
		c.led.Close()
	}
	if c.err != nil {
		rep.CheckpointError = c.err.Error()
	}
}
