package engine

import (
	"fairmc/internal/core"
	"fairmc/internal/tidset"
)

// Pool reuses Engine allocations across the thousands of executions a
// search performs. It is a single-slot freelist: a sequential driver
// (a searcher, or one worker goroutine of a parallel driver) runs one
// execution at a time, so one retained engine — with its thread
// records, worker coroutines, step buffers, and scratch space —
// captures all the reuse there is. A Pool must not be shared between
// goroutines without external synchronization.
type Pool struct {
	free *Engine
}

// Run is engine.Run drawing the Engine from the pool and returning it
// afterwards. Engines that end wedged are discarded: the wedged thread
// and the hub that resumed it are leaked and still hold the engine.
//
// The Result belongs to the pool: it and its Schedule, Trace, Digests,
// PerThread and Blocked slices are the pooled engine's own buffers,
// valid until the next Run on this pool, which overwrites them. A
// caller that keeps a result longer — a finding — keeps r.Clone().
func (p *Pool) Run(body func(*T), chooser Chooser, cfg Config) *Result {
	normalize(&cfg)
	e := p.free
	if e != nil {
		p.free = nil
		e.reset(chooser, cfg)
		if cfg.Metrics != nil {
			cfg.Metrics.EngineReuses.Inc()
		}
	} else {
		e = newEngine(chooser, cfg)
	}
	r := e.run(body)
	if e.wedge == nil {
		p.free = e
	} else {
		// Discarded engine: retire its idle workers so only the stuck
		// thread (and its hub) is leaked.
		e.releaseWorkers()
	}
	return r
}

// Close retires the pooled engine's idle worker coroutines. Callers
// that created a Pool should Close it when their search finishes; a
// dropped pool without Close leaks one parked coroutine (a goroutine,
// to the runtime) per worker until process exit.
func (p *Pool) Close() {
	if e := p.free; e != nil {
		p.free = nil
		e.releaseWorkers()
	}
}

// reset returns a finished engine to its pre-run state, keeping every
// allocation that can be kept. It must only run after run() returned:
// by then abort has unwound every thread (wedged engines never get
// here), every worker idles, and no other goroutine can touch the
// engine.
func (e *Engine) reset(chooser Chooser, cfg Config) {
	if e.wedge != nil {
		panic("engine: resetting a wedged engine")
	}
	e.cfg = cfg
	e.chooser = chooser
	e.fast = !cfg.NoFastPath
	if cfg.Fair {
		if e.fair != nil {
			e.fair.Reset(cfg.FairK)
		} else {
			e.fair = core.NewFair(0, cfg.FairK)
		}
	} else {
		e.fair = nil
	}
	// Recycle thread records through the freelist allocThread pops from.
	e.thFree = append(e.thFree, e.threads...)
	for i := range e.threads {
		e.threads[i] = nil
	}
	e.threads = e.threads[:0]
	e.opBits = e.opBits[:0]
	e.live = 0
	for i := range e.objects {
		e.objects[i] = nil
	}
	e.objects = e.objects[:0]
	e.objMeta = e.objMeta[:0]
	e.aborting.Store(false)
	e.violation = nil
	e.deadlineHit = false
	e.interrupted = false
	e.stepCount = 0
	e.yieldCnt = 0
	e.schedule = e.schedule[:0]
	e.trace = e.trace[:0]
	e.digests = e.digests[:0]
	e.choiceCnt = 0
	e.candCnt = 0
	e.fairBlockedCnt = 0
	e.wm = WMCounters{}
	e.prevTid = tidset.None
	e.prevYielded = false
	e.lastInfo = OpInfo{}
	e.esReady = false
	e.progress.Store(0)
	e.pendTh = nil
	e.pendAlt = Alt{}
	e.pendYield = false
	e.pendDig = StepDigest{}
	e.stashed = false
	e.stashOut = 0
	e.inlineCnt = 0
	e.handoffs = 0
}
