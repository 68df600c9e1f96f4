package search

import "fairmc/internal/engine"

// This file plans a systematic search's shards: the schedule tree is
// split at shallow choice points into a DFS-ordered frontier of schedule
// prefixes that partition it (the CHESS distributed-search shape). Each
// prefix is one shard — a worker replays it and runs the ordinary
// sequential DFS over the subtree below. Because the frontier partitions
// the tree and sequential DFS visits the subtrees contiguously in the
// same order, merging the subtree reports in frontier order reproduces
// the sequential counters, FirstBug, and FirstBugExecution exactly
// whenever the stop condition is a finding or exhaustion (MaxExecutions
// is quantized to prefix granularity, TimeLimit to wall-clock as always).
//
// The frontier is kept in DFS order and always partitions the schedule
// tree: every full execution extends exactly one frontier prefix. A
// SavedPrefix marked Leaf is one whose replay ended (or hit the depth
// bound) before reaching a fresh choice point, or stopped conforming
// during expansion: it cannot be split further. (A non-conforming leaf
// is quarantined by the worker that replays it.)

// expandChooser replays a prefix and captures the admissible
// alternatives at the first fresh choice point, applying exactly the
// sequential searcher's frontier filtering (preemption budget). It
// then aborts the execution: expansion runs are bookkeeping, not
// explored executions. Replayed steps are verified against the
// prefix's recorded digests; the first non-conformance is recorded in
// div and the expansion abandoned (the worker that later replays the
// prefix handles retry and quarantine).
type expandChooser struct {
	opts        *Options
	sched       []engine.Alt
	digs        []engine.StepDigest
	pos         int
	preemptUsed int
	alts        []engine.Alt    // captured fresh alternatives (owned copy)
	freshDig    uint64          // candidate-set digest at the fresh choice point
	freshOps    []engine.OpInfo // pending op per captured alternative
	ended       bool            // depth bound reached before a fresh choice point
	div         *engine.DivergenceError
}

// Choose implements engine.Chooser: replay the prefix (verifying
// conformance), then capture the first fresh choice point and stop.
func (c *expandChooser) Choose(ctx *engine.ChooseContext) (engine.Alt, bool) {
	if c.pos < len(c.sched) {
		alt := c.sched[c.pos]
		step := c.pos
		c.pos++
		var exp *engine.StepDigest
		if step < len(c.digs) && !c.opts.DisableConformance {
			exp = &c.digs[step]
		}
		if c.div = ctx.Engine.Conform(step, ctx.Cands, alt, exp); c.div != nil {
			return engine.Alt{}, false
		}
		if ctx.IsPreemption(alt) {
			c.preemptUsed++
		}
		return alt, true
	}
	if c.opts.DepthBound > 0 && ctx.Step >= c.opts.DepthBound {
		// The sequential searcher stops branching here; the subtree
		// below is a single (random-tail or aborted) continuation.
		c.ended = true
		return engine.Alt{}, false
	}
	c.alts = c.opts.admissible(nil, ctx, c.preemptUsed)
	if !c.opts.DisableConformance {
		c.freshDig = ctx.Engine.CandsDigest(ctx.Cands)
		c.freshOps = make([]engine.OpInfo, len(c.alts))
		for i, a := range c.alts {
			c.freshOps[i] = ctx.Engine.PendingOpInfo(a.Tid)
		}
	}
	return engine.Alt{}, false
}

// splitFrontier grows the root prefix into a DFS-ordered frontier of
// at least target prefixes (when the tree is wide enough), expanding
// the shallowest prefix first. Each expansion costs one partial
// replay; the total is capped so degenerate single-candidate chains
// terminate.
func splitFrontier(prog func(*engine.T), opts *Options, target int) []*SavedPrefix {
	frontier := []*SavedPrefix{{}}
	replays := 0
	replayCap := 8*target + 64
	var pool engine.Pool
	defer pool.Close()
	for len(frontier) < target && replays < replayCap {
		// Expand the shallowest non-leaf prefix; ties break toward the
		// DFS-earliest so expansion order is deterministic.
		idx := -1
		for j, pfx := range frontier {
			if !pfx.Leaf && (idx < 0 || len(pfx.Sched) < len(frontier[idx].Sched)) {
				idx = j
			}
		}
		if idx < 0 {
			break
		}
		pfx := frontier[idx]
		replays++
		c := &expandChooser{opts: opts, sched: pfx.Sched, digs: pfx.Digs}
		r := pool.Run(prog, c, opts.ReplayConfig())
		if c.div != nil || r.Outcome != engine.Aborted || c.ended || len(c.alts) == 0 {
			// Either the expansion replay stopped conforming — splitting
			// below a state the program does not reproduce would
			// partition a wrong tree; the worker that replays the prefix
			// runs the retry-then-quarantine protocol — or the execution
			// finished (terminated, deadlocked, violated, diverged, or
			// wedged) or stopped branching during the replay: the prefix
			// is a complete execution by itself, which a worker will run
			// and classify.
			pfx.Leaf = true
			continue
		}
		children := make([]*SavedPrefix, len(c.alts))
		for k, a := range c.alts {
			sched := make([]engine.Alt, len(pfx.Sched)+1)
			copy(sched, pfx.Sched)
			sched[len(pfx.Sched)] = a
			children[k] = &SavedPrefix{Sched: sched}
			if len(c.freshOps) == len(c.alts) {
				digs := make([]engine.StepDigest, len(pfx.Digs)+1)
				copy(digs, pfx.Digs)
				digs[len(pfx.Digs)] = engine.StepDigest{
					Hash: c.freshDig, Tid: a.Tid, Op: c.freshOps[k],
				}
				children[k].Digs = digs
			}
		}
		// Replace the parent with its children in place, preserving the
		// frontier's DFS order (children are in candidate order).
		tail := append(children, frontier[idx+1:]...)
		frontier = append(frontier[:idx], tail...)
	}
	return frontier
}
