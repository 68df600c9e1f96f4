package search

// This file implements dynamic partial-order reduction over explicit,
// serializable work units (por.Unit), in the lineage of Flanagan &
// Godefroid (POPL 2005) reformulated the parsimonious way: instead of
// inserting backtrack points into shared DFS-stack state, every
// detected race spawns one self-contained unit — a schedule prefix
// ending in the race reversal, plus the sleep-set entries the reversal
// inherits. Units are independent: a worker replays the prefix
// (digest-verified, with the same retry/quarantine protocol as every
// other replay in this package), extends it with leftmost-awake
// choices to a complete execution, and reports the races found along
// the trace; the merge turns unseen reversals into child units.
//
// The merge consumes unit reports strictly in spawn (FIFO) order, and
// children are spawned in proposal-discovery order, so the explored
// tree, every counter, and every finding are functions of the program
// alone — independent of worker count and timing. That one property
// buys everything downstream: a unit is one more shard kind
// (Shard.Unit), so the one driver runs the identical enumeration at any
// Parallelism, across distributed workers, and from a checkpoint, whose
// Frontier captures the pending units as plain data.
//
// The race analysis itself (por.Analyze) is the conservative variant:
// every dependent pair proposes a reversal at the earlier step, with
// no happens-before filtering. Each pair is analyzed exactly once
// globally — a unit analyzes only pairs whose later step is at or past
// its branch point; earlier pairs occurred identically in the parent's
// trace. Guarantee (as for classic DPOR): on programs that terminate
// under every schedule, all deadlocks and assertion violations are
// found; a unit that reaches MaxSteps is outside that premise and is
// reported as a divergence finding (classify), which stops the merge.
// It requires the unfair scheduler and composes with sleep sets, whose
// state rides inside the units (Unit.Sleep).

import (
	"strconv"
	"strings"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/por"
)

// DporResult is the unit-exploration payload a DPOR work-unit report
// carries back to the merge: how the unit's execution continued past
// its prefix, and the race reversals its trace proposes. It rides on
// Report only for unit runs (shards with Shard.Unit); merged reports
// never carry one.
type DporResult struct {
	// ContIdx are the filtered-candidate indices chosen at the steps
	// past the unit's prefix, and Cont the corresponding alternatives;
	// the unit's full path is Unit.Path + ContIdx.
	ContIdx []int        `json:"contIdx,omitempty"`
	Cont    []engine.Alt `json:"cont,omitempty"`
	// ContDigs are the conformance digests of the continuation steps
	// (empty when conformance is disabled).
	ContDigs []engine.StepDigest `json:"contDigs,omitempty"`
	// Nodes carries the candidate landscape of every step that received
	// at least one proposal — what the merge needs to materialize child
	// units.
	Nodes []DporNodeRec `json:"nodes,omitempty"`
	// Proposals are the race reversals the trace proposes, in
	// discovery order.
	Proposals []DporProposal `json:"proposals,omitempty"`
}

// DporNodeRec is one step's recorded candidate landscape: the
// context-bound-filtered alternatives, their moves, and the
// conformance digest of the state.
type DporNodeRec struct {
	// Pos is the 0-based step index within the unit's full path.
	Pos int `json:"pos"`
	// Alts is the filtered candidate list at the step's state.
	Alts []engine.Alt `json:"alts"`
	// Moves[i] is the pending move of Alts[i] at that state.
	Moves []por.Move `json:"moves"`
	// Hash is the unfiltered candidate-set digest of the state (0 when
	// conformance is disabled).
	Hash uint64 `json:"hash,omitempty"`
}

// DporProposal mirrors por.Proposal with JSON tags for transport: take
// alternative Idx at step Pos.
type DporProposal struct {
	Pos int `json:"pos"`
	Idx int `json:"idx"`
}

// DporTraceRec is the compact history of one consumed work unit, kept
// for checkpoint/resume: the unit's path, and the continuation indices
// its run chose (empty for quarantined or skipped units). The merge's
// dedup set is exactly the prefixes of Path+Cont over all consumed
// units plus the paths of pending units, so a resume reconstructs it
// from these records alone.
type DporTraceRec struct {
	Path []int `json:"path,omitempty"`
	Cont []int `json:"cont,omitempty"`
}

// unitChooser executes one DPOR work unit: it replays the unit's
// schedule under digest verification, then extends the execution with
// leftmost-awake choices, recording the per-step candidate landscape
// por.Analyze consumes.
type unitChooser struct {
	opts *Options
	unit *por.Unit

	pos         int
	preemptUsed int
	sleep       por.Set

	steps    []por.ExecStep
	hashes   []uint64 // unfiltered candidate-set digest per step (conformance on)
	contIdx  []int
	cont     []engine.Alt
	contDigs []engine.StepDigest

	div        *engine.DivergenceError
	abortSleep bool
}

// Choose implements engine.Chooser for one unit execution.
func (c *unitChooser) Choose(ctx *engine.ChooseContext) (engine.Alt, bool) {
	e := ctx.Engine
	step := c.pos
	var hash uint64
	haveDig := !c.opts.DisableConformance
	if haveDig {
		hash = e.CandsDigest(ctx.Cands)
	}
	replay := step < len(c.unit.Sched)
	if replay {
		want := c.unit.Sched[step]
		if err := altIn(want, ctx.Cands); err != "" {
			// The recorded alternative is not schedulable anymore: the
			// program is nondeterministic outside the scheduler's
			// control. Abort for retry/quarantine.
			exp := engine.StepDigest{}
			if step < len(c.unit.Digs) {
				exp = c.unit.Digs[step]
			}
			c.div = &engine.DivergenceError{
				Step:           step,
				Want:           want,
				Expected:       exp,
				Observed:       e.StepDigest(ctx.Cands, want),
				NumCands:       len(ctx.Cands),
				NotSchedulable: true,
			}
			return engine.Alt{}, false
		}
		if haveDig && step < len(c.unit.Digs) {
			obsOp := e.PendingOpInfo(want.Tid)
			exp := c.unit.Digs[step]
			if hash != exp.Hash || obsOp != exp.Op {
				c.div = &engine.DivergenceError{
					Step:     step,
					Want:     want,
					Expected: exp,
					Observed: engine.StepDigest{Hash: hash, Tid: want.Tid, Op: obsOp},
					NumCands: len(ctx.Cands),
				}
				return engine.Alt{}, false
			}
		}
	}

	// The same frontier filtering as the sequential searcher: the
	// preemption budget first (Path indices are relative to this list),
	// then the sleep mask. ctx.Cands is the engine's reused buffer, so
	// the recorded list must be an owned copy.
	alts := ctx.Cands
	owned := false
	if c.opts.ContextBound >= 0 && c.preemptUsed >= c.opts.ContextBound {
		alts = nonPreempting(ctx)
		if len(alts) == 0 {
			panic("search: empty alternative set under context bound")
		}
		owned = true
	}
	if !owned {
		alts = append([]engine.Alt(nil), alts...)
	}
	if c.opts.SleepSets && step < len(c.unit.Sleep) {
		// Install the serialized sleep entries for this state — the
		// siblings already covered when the unit was spawned — before
		// computing the awake mask.
		for _, m := range c.unit.Sleep[step] {
			c.sleep.Add(m)
		}
	}
	rec := por.ExecStep{
		Alts:  alts,
		Moves: make([]por.Move, len(alts)),
		Awake: make([]bool, len(alts)),
	}
	for i, a := range alts {
		rec.Moves[i] = por.MoveOf(e, a)
		rec.Awake[i] = !c.opts.SleepSets || !c.sleep.Contains(e, a)
	}

	var chosen engine.Alt
	if replay {
		chosen = c.unit.Sched[step]
	} else {
		k := -1
		for i := range alts {
			if rec.Awake[i] {
				k = i
				break
			}
		}
		if k < 0 {
			// Every alternative is asleep: the state's successors are
			// covered by sibling units. Prune.
			c.abortSleep = true
			return engine.Alt{}, false
		}
		chosen = alts[k]
		c.contIdx = append(c.contIdx, k)
		c.cont = append(c.cont, chosen)
		if haveDig {
			c.contDigs = append(c.contDigs, engine.StepDigest{
				Hash: hash, Tid: chosen.Tid, Op: e.PendingOpInfo(chosen.Tid),
			})
		}
	}
	rec.Chosen = por.MoveOf(e, chosen)
	c.steps = append(c.steps, rec)
	if haveDig {
		c.hashes = append(c.hashes, hash)
	}
	if ctx.IsPreemption(chosen) {
		c.preemptUsed++
	}
	if c.opts.SleepSets {
		c.sleep.Step(rec.Chosen)
	}
	c.pos++
	return chosen, true
}

// runDporUnit executes one work unit to completion and returns its
// report, ready for ShardMerger.Offer. It mirrors the sequential
// execution loop exactly: divergence retry then quarantine,
// unconditional counter accounting, classify semantics per outcome.
func runDporUnit(prog func(*engine.T), opts *Options, pool *engine.Pool, unit *por.Unit, deadline time.Time) *Report {
	rep := &Report{}
	var r *engine.Result
	var c *unitChooser
	for attempt := 1; ; attempt++ {
		c = &unitChooser{opts: opts, unit: unit}
		r = opts.runEngine(pool, prog, c, opts.engineConfig(deadline, 1))
		if c.div == nil {
			break
		}
		if m := opts.Metrics; m != nil {
			m.ReplayDivergences.Inc()
		}
		if attempt > opts.divergenceRetries() {
			k := c.div.Step + 1
			if k > len(unit.Sched) {
				k = len(unit.Sched)
			}
			quarantined(opts, rep, append([]engine.Alt(nil), unit.Sched[:k]...), c.div, attempt)
			return rep
		}
	}
	rep.addResult(r)
	reason := abortNone
	if c.abortSleep {
		reason = abortSleep
	}
	classify(prog, opts, rep, r, 1, reason)
	if rep.TimedOut {
		// The shared deadline cut this unit; the merge discards the
		// partial work so a resume re-runs the unit in full.
		return rep
	}
	rep.Exhausted = true
	rep.Dpor = buildDporResult(opts, unit, c)
	return rep
}

// buildDporResult runs the race analysis over the unit's trace and
// packages the result for the merge.
func buildDporResult(opts *Options, unit *por.Unit, c *unitChooser) *DporResult {
	props := por.Analyze(len(unit.Sched)-1, c.steps)
	if m := opts.Metrics; m != nil && len(props) > 0 {
		m.DporRaces.Add(int64(len(props)))
	}
	d := &DporResult{ContIdx: c.contIdx, Cont: c.cont, ContDigs: c.contDigs}
	if len(props) == 0 {
		return d
	}
	d.Proposals = make([]DporProposal, len(props))
	haveNode := make(map[int]bool)
	for i, pr := range props {
		d.Proposals[i] = DporProposal{Pos: pr.Pos, Idx: pr.Idx}
		if haveNode[pr.Pos] {
			continue
		}
		haveNode[pr.Pos] = true
		st := &c.steps[pr.Pos]
		var hash uint64
		if pr.Pos < len(c.hashes) {
			hash = c.hashes[pr.Pos]
		}
		d.Nodes = append(d.Nodes, DporNodeRec{Pos: pr.Pos, Alts: st.Alts, Moves: st.Moves, Hash: hash})
	}
	return d
}

// pathKey encodes a unit path as the merge's dedup-set key.
func pathKey(path []int) string {
	var b strings.Builder
	for i, v := range path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// markPath marks every prefix of path as seen (prefixes of a spawned
// unit's path are provably already seen in the original run, so
// over-marking on a resume cannot change the enumeration).
func (m *ShardMerger) markPath(path []int) {
	for k := 1; k <= len(path); k++ {
		m.seen[pathKey(path[:k])] = true
	}
}

// spawn follows the merge of one consumed unit's report r (nil: skipped
// after repeated crashes): it records the unit's trace and, unless the
// merge stopped, appends a child shard for every race reversal the
// report proposes that no unit has covered yet, in canonical
// (proposal-discovery) order. The append order is a pure function of
// the reports merged so far.
func (m *ShardMerger) spawn(unit *por.Unit, r *Report) {
	if r == nil || r.Dpor == nil {
		// Skipped or quarantined: the unit consumed its turn but spawns
		// nothing. Record its path so a resume reconstructs the dedup set.
		m.traces = append(m.traces, DporTraceRec{Path: append([]int(nil), unit.Path...)})
		return
	}
	d := r.Dpor
	fullPath := make([]int, 0, len(unit.Path)+len(d.ContIdx))
	fullPath = append(fullPath, unit.Path...)
	fullPath = append(fullPath, d.ContIdx...)
	// Mark the taken path first: proposals matching a step the unit
	// itself took (or any already-spawned sibling) are redundant.
	m.markPath(fullPath)
	m.traces = append(m.traces, DporTraceRec{
		Path: append([]int(nil), unit.Path...),
		Cont: append([]int(nil), d.ContIdx...),
	})
	if m.stopped {
		return
	}
	fullSched := make([]engine.Alt, 0, len(unit.Sched)+len(d.Cont))
	fullSched = append(fullSched, unit.Sched...)
	fullSched = append(fullSched, d.Cont...)
	var fullDigs []engine.StepDigest
	if !m.opts.DisableConformance {
		fullDigs = make([]engine.StepDigest, 0, len(unit.Digs)+len(d.ContDigs))
		fullDigs = append(fullDigs, unit.Digs...)
		fullDigs = append(fullDigs, d.ContDigs...)
	}
	nodeAt := make(map[int]*DporNodeRec, len(d.Nodes))
	for i := range d.Nodes {
		nodeAt[d.Nodes[i].Pos] = &d.Nodes[i]
	}
	for _, pr := range d.Proposals {
		node := nodeAt[pr.Pos]
		if node == nil || pr.Pos >= len(fullPath) || pr.Idx >= len(node.Alts) {
			continue // malformed payload (defensive; never produced by runDporUnit)
		}
		childPath := make([]int, 0, pr.Pos+1)
		childPath = append(childPath, fullPath[:pr.Pos]...)
		childPath = append(childPath, pr.Idx)
		key := pathKey(childPath)
		if m.seen[key] {
			if mt := m.opts.Metrics; mt != nil {
				mt.DporUnitsPruned.Inc()
			}
			continue
		}
		m.seen[key] = true
		child := &por.Unit{
			Path:  childPath,
			Sched: append(append(make([]engine.Alt, 0, pr.Pos+1), fullSched[:pr.Pos]...), node.Alts[pr.Idx]),
		}
		if fullDigs != nil && len(fullDigs) >= pr.Pos {
			child.Digs = append(append(make([]engine.StepDigest, 0, pr.Pos+1), fullDigs[:pr.Pos]...),
				engine.StepDigest{Hash: node.Hash, Tid: node.Alts[pr.Idx].Tid, Op: node.Moves[pr.Idx].Info})
		}
		if m.opts.SleepSets {
			// The child inherits the parent's installed sleep entries
			// along the shared prefix, and at the branch point puts every
			// already-covered sibling to sleep. Spawn order makes the
			// covered-by relation acyclic, which is what keeps the
			// reduction sound.
			sleep := make([][]por.Move, pr.Pos+1)
			for k := 0; k < pr.Pos && k < len(unit.Sleep); k++ {
				sleep[k] = unit.Sleep[k]
			}
			var sl []por.Move
			for j := range node.Alts {
				if j == pr.Idx {
					continue
				}
				sib := append(append(make([]int, 0, pr.Pos+1), fullPath[:pr.Pos]...), j)
				if m.seen[pathKey(sib)] {
					sl = append(sl, node.Moves[j])
				}
			}
			sleep[pr.Pos] = sl
			child.Sleep = sleep
		}
		// A resumed coordinator re-offers completed shards over an
		// already grown plan: the child is then present, not appended.
		if m.spawnNext >= len(m.plan.Shards) {
			m.plan.Shards = append(m.plan.Shards, Shard{Index: m.spawnNext, Unit: child})
		}
		m.spawnNext++
	}
}
