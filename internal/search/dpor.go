package search

// This file implements dynamic partial-order reduction over explicit,
// serializable work units (por.Unit), in the lineage of Flanagan &
// Godefroid (POPL 2005) reformulated the parsimonious way: instead of
// inserting backtrack points into shared DFS-stack state, every
// detected race spawns one self-contained unit — a schedule prefix
// ending in the race reversal, plus the sleep-set entries the reversal
// inherits. Units are independent: a worker replays the prefix
// (engine.Conform, under this package's one retry/quarantine protocol,
// conformingRun), extends it with leftmost-awake choices to a complete
// execution, and reports the races found along the trace; the merge
// turns unseen reversals into child units.
//
// The merge consumes unit reports strictly in spawn (FIFO) order, and
// children are spawned in proposal-discovery order, so the explored
// tree, every counter, and every finding are functions of the program
// alone — independent of worker count and timing. That one property
// buys everything downstream: a unit is one more shard kind
// (Shard.Unit), so the one driver runs the identical enumeration at any
// Parallelism, across distributed workers, and from a checkpoint
// directory, whose unit reports regrow the pending units (Fold).
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
// It requires the unfair scheduler and always carries sleep sets, whose
// state rides inside the units (Unit.Sleep).

import (
	"fmt"
	"sync"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/por"
)

// DporResult is the unit-exploration payload a DPOR work-unit report
// carries back to the merge: how the unit's execution continued past
// its prefix, and the race reversals its trace proposes. It rides on
// Report only for unit runs (shards with Shard.Unit); merged reports
// never carry one. It travels in por's binary codec (code), inside the
// report's layout.
type DporResult struct {
	// ContIdx are the filtered-candidate indices chosen at the steps
	// past the unit's prefix, and Cont the corresponding alternatives;
	// the unit's full path is Unit.Path + ContIdx.
	ContIdx []int
	Cont    []engine.Alt
	// ContDigs are the conformance digests of the continuation steps
	// (empty when conformance is disabled).
	ContDigs []engine.StepDigest
	// Nodes carries the candidate landscape of every step that received
	// at least one proposal — what the merge needs to materialize child
	// units.
	Nodes []DporNodeRec
	// Proposals are the race reversals the trace proposes, in
	// discovery order.
	Proposals []por.Proposal
}

// DporNodeRec is one step's recorded candidate landscape: the
// context-bound-filtered alternatives, their moves, and the
// conformance digest of the state.
type DporNodeRec struct {
	// Pos is the 0-based step index within the unit's full path.
	Pos int
	// Alts is the filtered candidate list at the step's state.
	Alts []engine.Alt
	// Moves[i] is the pending move of Alts[i] at that state.
	Moves []por.Move
	// Hash is the unfiltered candidate-set digest of the state (0 when
	// conformance is disabled).
	Hash uint64
}

// code is the result's layout: ContIdx, Cont and ContDigs; then Nodes —
// their count, their alternatives' total, and per node its Pos, Hash and
// alternative count, each alternative followed by its move; then
// Proposals. All decoded nodes' Alts share one backing array, and so do
// their Moves.
func (d *DporResult) code(c *por.Codec) {
	if c.Decoding() {
		*d = DporResult{}
	}
	por.Slice(c, &d.ContIdx, 1, (*por.Codec).Int)
	por.Slice(c, &d.Cont, por.MinAlt, (*por.Codec).Alt)
	por.Slice(c, &d.ContDigs, por.MinDigest, (*por.Codec).Digest)
	n, total := c.Len(len(d.Nodes), 1+8+1), 0
	for _, nd := range d.Nodes {
		total += len(nd.Alts)
	}
	total = c.Len(total, por.MinAlt+por.MinMove)
	var alts []engine.Alt
	var moves []por.Move
	if c.Decoding() && n > 0 {
		d.Nodes, alts, moves = make([]DporNodeRec, n), make([]engine.Alt, 0, total), make([]por.Move, 0, total)
	}
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		c.Int(&nd.Pos)
		c.Hash(&nd.Hash)
		k := c.Len(len(nd.Alts), por.MinAlt+por.MinMove)
		switch {
		case !c.Decoding() && len(nd.Moves) != k:
			c.Fail(fmt.Sprintf("a node with %d alternatives and %d moves", k, len(nd.Moves)))
			return
		case c.Decoding() && k > total-len(alts):
			c.Fail("node alternatives past their total")
			return
		case c.Decoding():
			nd.Alts, nd.Moves = por.Carve(&alts, k), por.Carve(&moves, k)
		}
		for j := range nd.Alts {
			c.Alt(&nd.Alts[j])
			c.Move(&nd.Moves[j])
		}
	}
	if c.Decoding() && len(alts) != total {
		c.Fail("node alternatives short of their total")
	}
	por.Slice(c, &d.Proposals, 2, func(c *por.Codec, p *por.Proposal) {
		c.Int(&p.Pos)
		c.Int(&p.Idx)
	})
}

// unitChooser executes one DPOR work unit: it replays the unit's
// schedule under digest verification, then extends the execution with
// leftmost-awake choices, recording the per-step candidate landscape
// por.Analyze consumes. Choosers are recycled through chooserPool, so
// in the steady state a run's record and its race analysis cost no
// allocation.
type unitChooser struct {
	opts *Options
	unit *por.Unit

	pos         int
	preemptUsed int
	sleep       por.Set

	// steps[i].Alts/Moves/Awake are sub-slices of the three arenas below,
	// one append per step instead of three allocations.
	steps    []por.ExecStep
	alts     []engine.Alt
	moves    []por.Move
	awake    []bool
	hashes   []uint64 // unfiltered candidate-set digest per step (conformance on)
	contIdx  []int
	cont     []engine.Alt
	contDigs []engine.StepDigest

	div        *engine.DivergenceError
	abortSleep bool

	// The race analysis's scratch and buildDporResult's marks: a unit's
	// result allocates only what it reports.
	analyzer por.Analyzer
	have     []bool
}

var chooserPool = sync.Pool{New: func() any { return new(unitChooser) }}

// reset readies a recycled chooser for one attempt at unit, keeping the
// buffers' capacity.
func (c *unitChooser) reset(opts *Options, unit *por.Unit) {
	*c = unitChooser{
		opts: opts, unit: unit,
		steps: c.steps[:0], alts: c.alts[:0], moves: c.moves[:0], awake: c.awake[:0],
		hashes: c.hashes[:0], contIdx: c.contIdx[:0], cont: c.cont[:0], contDigs: c.contDigs[:0],
		sleep: c.sleep, analyzer: c.analyzer, have: c.have,
	}
	c.sleep.Reset()
}

// Choose implements engine.Chooser for one unit execution.
func (c *unitChooser) Choose(ctx *engine.ChooseContext) (engine.Alt, bool) {
	e := ctx.Engine
	step := c.pos
	haveDig := !c.opts.DisableConformance
	replay := step < len(c.unit.Sched)
	var exp *engine.StepDigest
	if replay {
		// A step that does not conform means the program is
		// nondeterministic outside the scheduler's control. Abort for
		// retry/quarantine.
		if haveDig && step < len(c.unit.Digs) {
			exp = &c.unit.Digs[step]
		}
		if c.div = e.Conform(step, ctx.Cands, c.unit.Sched[step], exp); c.div != nil {
			return engine.Alt{}, false
		}
	}
	// The unfiltered candidate-set digest of this state: the one just
	// verified, when there was one.
	var hash uint64
	if exp != nil {
		hash = exp.Hash
	} else if haveDig {
		hash = e.CandsDigest(ctx.Cands)
	}

	// The same frontier filtering as the sequential searcher: the
	// preemption budget first (Path indices are relative to this list),
	// then the sleep mask. ctx.Cands is the engine's reused buffer, so
	// the recorded list is copied into the arena.
	lo := len(c.alts)
	c.alts = c.opts.admissible(c.alts, ctx, c.preemptUsed)
	if step < len(c.unit.Sleep) {
		// Install the serialized sleep entries for this state — the
		// siblings already covered when the unit was spawned — before
		// computing the awake mask.
		for _, m := range c.unit.Sleep[step] {
			c.sleep.Add(m)
		}
	}
	hi := len(c.alts)
	alts := c.alts[lo:hi:hi]
	for _, a := range alts {
		c.moves = append(c.moves, por.MoveOf(e, a))
		c.awake = append(c.awake, !c.sleep.Contains(e, a))
	}
	rec := por.ExecStep{Alts: alts, Moves: c.moves[lo:hi:hi], Awake: c.awake[lo:hi:hi]}

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
	c.sleep.Step(rec.Chosen)
	c.pos++
	return chosen, true
}

// runDporUnit executes one work unit to completion and returns its
// report, ready for ShardMerger.Offer. It is the sequential execution
// loop run once: the same retry-then-quarantine protocol, cut handling,
// counter accounting and classify semantics per outcome.
func runDporUnit(prog func(*engine.T), opts *Options, pool *engine.Pool, unit *por.Unit, deadline time.Time) *Report {
	rep := &Report{}
	var r *engine.Result
	c := chooserPool.Get().(*unitChooser)
	defer chooserPool.Put(c)
	div, attempts := opts.conformingRun(func() *engine.DivergenceError {
		c.reset(opts, unit)
		r = pool.Run(prog, c, opts.engineConfig(deadline, 1))
		return c.div
	})
	if div != nil {
		// div.Step indexes the replayed prefix, so it is within Sched.
		quarantined(opts, rep, append([]engine.Alt(nil), unit.Sched[:div.Step+1]...), div, attempts)
		return rep
	}
	if rep.cutBy(r) {
		// Cancelled or out of time mid-execution: the merge discards the
		// report and a resume re-runs the unit in full.
		return rep
	}
	rep.addResult(r)
	reason := abortNone
	if c.abortSleep {
		reason = abortSleep
	}
	classify(prog, opts, rep, r, 1, reason)
	rep.Exhausted = true
	if rep.Divergence == nil {
		// A unit cut at MaxSteps spawns nothing, whether or not the merge
		// goes on past the finding: its trace is outside the reduction's
		// terminating-program precondition, and is spared the race
		// analysis, quadratic in its length.
		rep.Dpor = buildDporResult(opts, unit, c)
	}
	return rep
}

// buildDporResult runs the race analysis over the unit's trace and
// packages the result for the merge, copying what it reports out of the
// chooser's recycled buffers, each at its exact size.
func buildDporResult(opts *Options, unit *por.Unit, c *unitChooser) *DporResult {
	props := c.analyzer.Analyze(len(unit.Sched)-1, c.steps)
	if m := opts.Metrics; m != nil && len(props) > 0 {
		m.DporRaces.Add(int64(len(props)))
	}
	d := &DporResult{
		ContIdx:  append([]int(nil), c.contIdx...),
		Cont:     append([]engine.Alt(nil), c.cont...),
		ContDigs: append([]engine.StepDigest(nil), c.contDigs...),
	}
	if len(props) == 0 {
		return d
	}
	d.Proposals = append([]por.Proposal(nil), props...)
	// The steps that received a proposal, in first-proposal order, their
	// landscapes copied out into one backing array each: counted first,
	// then recorded, the second pass clearing the marks the first set.
	if cap(c.have) < len(c.steps) {
		c.have = make([]bool, len(c.steps))
	}
	have, nodes, width := c.have[:len(c.steps)], 0, 0
	for _, pr := range props {
		if !have[pr.Pos] {
			have[pr.Pos] = true
			nodes++
			width += len(c.steps[pr.Pos].Alts)
		}
	}
	d.Nodes = make([]DporNodeRec, 0, nodes)
	alts, moves := make([]engine.Alt, 0, width), make([]por.Move, 0, width)
	for _, pr := range props {
		if have[pr.Pos] {
			have[pr.Pos] = false
			st, lo := &c.steps[pr.Pos], len(alts)
			alts, moves = append(alts, st.Alts...), append(moves, st.Moves...)
			n := DporNodeRec{Pos: pr.Pos, Alts: alts[lo:], Moves: moves[lo:]}
			if n.Pos < len(c.hashes) {
				n.Hash = c.hashes[n.Pos]
			}
			d.Nodes = append(d.Nodes, n)
		}
	}
	return d
}

// pathTrie is the merge's dedup set: a prefix-closed set of unit paths,
// one node per path, node 0 the empty path. Nodes link by index into
// the one slice (0: none — the root is nobody's child or sibling), so
// the set holds no pointers and the garbage collector never scans it,
// however many million paths a search accumulates.
type pathTrie []trieNode

type trieNode struct{ child, sib, label int32 }

// find returns the child of n labelled l, or 0.
func (t pathTrie) find(n int32, l int) int32 {
	c := t[n].child
	for c != 0 && t[c].label != int32(l) {
		c = t[c].sib
	}
	return c
}

// add returns the child of n labelled l and whether it had to be
// inserted (at the head of n's children).
func (t *pathTrie) add(n int32, l int) (int32, bool) {
	if c := t.find(n, l); c != 0 {
		return c, false
	}
	id := int32(len(*t))
	*t = append(*t, trieNode{sib: (*t)[n].child, label: int32(l)})
	(*t)[n].child = id
	return id, true
}

// cutChild appends to *arena the first n elements of a followed by b,
// then last, and returns them as a slice of its own: a child unit's
// prefix, cut from its parent's prefix and continuation.
func cutChild[T any](arena *[]T, a, b []T, n int, last T) []T {
	s, lo := *arena, len(*arena)
	if n <= len(a) {
		s = append(s, a[:n]...)
	} else {
		s = append(append(s, a...), b[:n-len(a)]...)
	}
	s = append(s, last)
	*arena = s
	return s[lo:len(s):len(s)]
}

// spawnRec is one child a report spawns: the index of its proposal, and
// where its covered siblings end in the merger's asleep scratch.
type spawnRec struct{ prop, asleep int }

// spawn follows the merge of one consumed unit's report r (nil: skipped
// after repeated crashes): it adds the unit's full path to the dedup
// set and, unless the merge stopped, plans a child shard for every race
// reversal the report proposes that no unit has covered yet, in
// canonical (proposal-discovery) order. The plan's growth is a pure
// function of the reports merged so far.
//
// The walk runs on the merger's scratch; what it allocates is the
// children, each kind of their slices cut from one allocation per report.
func (m *ShardMerger) spawn(unit *por.Unit, r *Report) {
	if r == nil || r.Dpor == nil {
		// Skipped, quarantined or stopped on a divergence: the unit
		// consumed its turn but spawns nothing, and its own path joined
		// the set when it was spawned.
		return
	}
	d := r.Dpor
	// Walk the taken path once, remembering the set's node before every
	// step: a proposal at step p, or a sibling of one, is then a single
	// child probe at at[p]. The taken path goes in first: proposals
	// matching a step the unit itself took (or any already-spawned
	// sibling) are redundant.
	at := append(m.at[:0], 0)
	for _, part := range [2][]int{unit.Path, d.ContIdx} {
		for _, l := range part {
			n, _ := m.seen.add(at[len(at)-1], l)
			at = append(at, n)
		}
	}
	m.at = at
	if m.stopped {
		return
	}
	// nodeAt[p] is 1 + the index of step p's node in d.Nodes, 0 for none.
	steps := len(at) - 1
	if cap(m.nodeAt) < steps {
		m.nodeAt = make([]int32, steps)
	}
	nodeAt := m.nodeAt[:steps]
	clear(nodeAt)
	for i := range d.Nodes {
		if p := d.Nodes[i].Pos; p >= 0 && p < steps {
			nodeAt[p] = int32(i) + 1
		}
	}
	// First pass: the proposals that spawn a child, and the siblings each
	// child puts to sleep at its branch point — those covered by then.
	// Spawn order makes the covered-by relation acyclic, which is what
	// keeps the reduction sound.
	kids, asleep, prefix := m.kids[:0], m.asleep[:0], 0
	for i, pr := range d.Proposals {
		if pr.Pos < 0 || pr.Pos >= steps || nodeAt[pr.Pos] == 0 ||
			pr.Idx < 0 || pr.Idx >= len(d.Nodes[nodeAt[pr.Pos]-1].Alts) {
			continue // malformed payload (defensive; never produced by runDporUnit)
		}
		if _, fresh := m.seen.add(at[pr.Pos], pr.Idx); !fresh {
			if mt := m.opts.Metrics; mt != nil {
				mt.DporUnitsPruned.Inc()
			}
			continue
		}
		node := &d.Nodes[nodeAt[pr.Pos]-1]
		for j := range node.Alts {
			if j != pr.Idx && m.seen.find(at[pr.Pos], j) != 0 {
				asleep = append(asleep, node.Moves[j])
			}
		}
		kids = append(kids, spawnRec{prop: i, asleep: len(asleep)})
		prefix += pr.Pos + 1
	}
	m.kids, m.asleep = kids, asleep
	if len(kids) == 0 {
		return
	}
	// Second pass: the children. Each inherits the parent's installed
	// sleep entries along the shared prefix.
	units := make([]por.Unit, len(kids))
	paths, scheds := make([]int, 0, prefix), make([]engine.Alt, 0, prefix)
	sleeps, sleeping := make([][]por.Move, prefix), append([]por.Move(nil), asleep...)
	var digs []engine.StepDigest
	if !m.opts.DisableConformance {
		digs = make([]engine.StepDigest, 0, prefix)
	}
	lo := 0
	for k, kid := range kids {
		pr := d.Proposals[kid.prop]
		node := &d.Nodes[nodeAt[pr.Pos]-1]
		child := &units[k]
		child.Path = cutChild(&paths, unit.Path, d.ContIdx, pr.Pos, pr.Idx)
		child.Sched = cutChild(&scheds, unit.Sched, d.Cont, pr.Pos, node.Alts[pr.Idx])
		if digs != nil && len(unit.Digs)+len(d.ContDigs) >= pr.Pos {
			child.Digs = cutChild(&digs, unit.Digs, d.ContDigs, pr.Pos,
				engine.StepDigest{Hash: node.Hash, Tid: node.Alts[pr.Idx].Tid, Op: node.Moves[pr.Idx].Info})
		}
		child.Sleep, sleeps = sleeps[:pr.Pos+1:pr.Pos+1], sleeps[pr.Pos+1:]
		copy(child.Sleep[:pr.Pos], unit.Sleep)
		if kid.asleep > lo {
			child.Sleep[pr.Pos] = sleeping[lo:kid.asleep:kid.asleep]
		}
		lo = kid.asleep
		m.plan.Shards = append(m.plan.Shards, Shard{Index: len(m.plan.Shards), Unit: child})
	}
}
