package search

// This file holds the binary layouts (por.Codec) of what a search hands
// to another process or to its checkpoint: a Report, a Shard, a Plan and
// the two checkpoint records. docs/DPOR.md ("Wire format") describes
// them. A Report's hot part — its counters, stop flags, execution
// indices, time and DPOR payload — is binary; its cold part, the fields
// a finding or a fault sets at most a few times per search, is one
// length-prefixed JSON section, empty in the common case.

import (
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/por"
)

// counters lists the counters in declared order, the order they travel
// in.
func (c *Counters) counters() [19]*int64 {
	return [...]*int64{
		&c.Executions, &c.TotalSteps, &c.MaxDepth, &c.Yields, &c.EdgeAdds, &c.EdgeErases,
		&c.FairBlocked, &c.BufferedStores, &c.Flushes, &c.Fences, &c.Forwards,
		&c.NonTerminating, &c.PrunedVisited, &c.PrunedSleep, &c.Deadlocks, &c.Violations,
		&c.Wedges, &c.Quarantined, &c.Skipped,
	}
}

// reportCold is a Report's cold section.
type reportCold struct {
	FirstBug                  *engine.Result         `json:",omitempty"`
	Divergence                *engine.Result         `json:",omitempty"`
	FirstWedge                *engine.Result         `json:",omitempty"`
	Nondeterminism            []NondeterminismReport `json:",omitempty"`
	BugReproducibility        *Reproducibility       `json:",omitempty"`
	DivergenceReproducibility *Reproducibility       `json:",omitempty"`
	WorkerFailures            []WorkerFailure        `json:",omitempty"`
	CheckpointError           string                 `json:",omitempty"`
	Rest                      *Shard                 `json:",omitempty"`
}

// empty reports whether every field of the section is.
func (v *reportCold) empty() bool {
	return v.FirstBug == nil && v.Divergence == nil && v.FirstWedge == nil && len(v.Nondeterminism) == 0 &&
		v.BugReproducibility == nil && v.DivergenceReproducibility == nil && len(v.WorkerFailures) == 0 &&
		v.CheckpointError == "" && v.Rest == nil
}

// Code is the report's layout: the counters, the stop flags as one
// bitmask, the three execution indices and Elapsed, the DPOR payload if
// any, then the cold section.
func (r *Report) Code(c *por.Codec) {
	if c.Decoding() {
		*r = Report{}
	}
	for _, p := range r.counters() {
		c.Int64(p)
	}
	stops, flags := [...]*bool{&r.Exhausted, &r.TimedOut, &r.ExecBounded, &r.Interrupted}, 0
	for i, f := range stops {
		if *f {
			flags |= 1 << i
		}
	}
	if c.Uint(&flags); flags >= 1<<len(stops) {
		c.Fail("unknown stop flags")
	}
	for i, f := range stops {
		*f = flags&(1<<i) != 0
	}
	c.Int64(&r.FirstBugExecution)
	c.Int64(&r.DivergenceExecution)
	c.Int64(&r.FirstWedgeExecution)
	elapsed := int64(r.Elapsed)
	c.Int64(&elapsed)
	r.Elapsed = time.Duration(elapsed)
	por.Optional(c, &r.Dpor, (*DporResult).code)
	r.codeCold(c)
}

// codeCold codes the cold section: none when every field is empty, so a
// decoder refuses an empty one.
func (r *Report) codeCold(c *por.Codec) {
	var v *reportCold
	if cold := (reportCold{r.FirstBug, r.Divergence, r.FirstWedge, r.Nondeterminism, r.BugReproducibility,
		r.DivergenceReproducibility, r.WorkerFailures, r.CheckpointError, r.Rest}); !c.Decoding() && !cold.empty() {
		v = new(reportCold)
		*v = cold
	}
	if por.JSON(c, &v); !c.Decoding() || v == nil {
		return
	}
	if v.empty() {
		c.Fail("an empty cold section")
	}
	r.FirstBug, r.Divergence, r.FirstWedge, r.Nondeterminism = v.FirstBug, v.Divergence, v.FirstWedge, v.Nondeterminism
	r.BugReproducibility, r.DivergenceReproducibility = v.BugReproducibility, v.DivergenceReproducibility
	r.WorkerFailures, r.CheckpointError, r.Rest = v.WorkerFailures, v.CheckpointError, v.Rest
}

// Code is the shard's layout: Index, Lo and Hi, then its prefix and its
// unit, each if any.
func (sh *Shard) Code(c *por.Codec) {
	c.Uint(&sh.Index)
	c.Int64(&sh.Lo)
	c.Int64(&sh.Hi)
	por.Optional(c, &sh.Prefix, (*SavedPrefix).code)
	por.Optional(c, &sh.Unit, (*por.Unit).Code)
}

// code is the prefix's layout: Sched, Digs, Leaf, then Later — per entry
// its Step, alternatives and ops.
func (p *SavedPrefix) code(c *por.Codec) {
	por.Slice(c, &p.Sched, por.MinAlt, (*por.Codec).Alt)
	por.Slice(c, &p.Digs, por.MinDigest, (*por.Codec).Digest)
	c.Bool(&p.Leaf)
	por.Slice(c, &p.Later, 3, func(c *por.Codec, l *LaterAlts) {
		c.Uint(&l.Step)
		por.Slice(c, &l.Alts, por.MinAlt, (*por.Codec).Alt)
		por.Slice(c, &l.Ops, por.MinOp, (*por.Codec).Op)
	})
}

// code is the plan's layout: Strategy, RefParallelism, OptionsHash and
// Serial, then the shards.
func (p *Plan) code(c *por.Codec) {
	c.String(&p.Strategy)
	c.Uint(&p.RefParallelism)
	c.Hash(&p.OptionsHash)
	c.Bool(&p.Serial)
	por.Slice(c, &p.Shards, 4, func(c *por.Codec, sh *Shard) { sh.Code(c) })
}

// code is the plan record's layout: Job and OptionsHash, the plan if
// any, then the spec as its JSON (empty: none).
func (r *PlanRec) code(c *por.Codec) {
	c.String(&r.Job)
	c.Hash(&r.OptionsHash)
	por.Optional(c, &r.Plan, (*Plan).code)
	por.JSON(c, &r.Spec)
}

// code is the shard_done record's layout: Job, OptionsHash, Shard and
// Abandoned, then the report, if any, as one section.
func (d *ShardDoneRec) code(c *por.Codec) {
	c.String(&d.Job)
	c.Hash(&d.OptionsHash)
	c.Int(&d.Shard)
	c.String(&d.Abandoned)
	por.Optional(c, &d.Report, func(r *Report, c *por.Codec) { c.Section(&d.Raw, r.Code) })
}

// Encode appends to buf the record as the ledger holds it.
func (r *PlanRec) Encode(buf []byte) ([]byte, error) { return por.Encode(buf, r.code) }

// Encode appends to buf the record as the ledger holds it, the report
// spliced in as it was posted when Raw holds it.
func (d *ShardDoneRec) Encode(buf []byte) ([]byte, error) { return por.Encode(buf, d.code) }

// DecodePlanRec decodes a plan record Encode wrote.
func DecodePlanRec(data []byte) (*PlanRec, error) {
	r := new(PlanRec)
	return r, por.Decode(data, r.code)
}

// DecodeShardDone decodes a shard_done record Encode wrote. The record
// keeps no reference to data.
func DecodeShardDone(data []byte) (*ShardDoneRec, error) {
	d := new(ShardDoneRec)
	err := por.Decode(data, d.code)
	d.Raw = nil
	return d, err
}
