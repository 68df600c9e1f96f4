package engine

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync/atomic"
	"time"

	"fairmc/internal/core"
	"fairmc/internal/obs"
	"fairmc/internal/tidset"
)

// Chooser resolves the nondeterminism at each scheduling point: which
// schedulable thread runs next and, for data-choice operations, which
// alternative it takes. Search strategies implement Chooser.
type Chooser interface {
	// Choose picks one of ctx.Cands. Returning ok = false aborts the
	// execution (outcome Aborted); the search uses this to prune.
	Choose(ctx *ChooseContext) (alt Alt, ok bool)
}

// ChooseContext is the information available to a Chooser at one
// scheduling point. The context and its Cands slice are owned by the
// engine and valid only for the duration of the Choose call; a chooser
// that retains alternatives across calls must copy them.
type ChooseContext struct {
	// Step is the 0-based index of the decision being made.
	Step int
	// Cands are the available alternatives in deterministic order
	// (ascending thread id, then choice value). Never empty. The slice
	// is reused between steps: copy it to retain it.
	Cands []Alt
	// PrevTid is the thread scheduled at the previous step, or
	// tidset.None at the first step.
	PrevTid tidset.Tid
	// PrevEnabled reports whether the previous thread is enabled now.
	// Switching away from an enabled previous thread is a preemption…
	PrevEnabled bool
	// PrevFairBlocked: …unless the fair scheduler priority-blocked it,
	// in which case the forced switch is not counted against a
	// context bound (paper §4).
	PrevFairBlocked bool
	// PrevYielded reports whether the previous transition was a
	// yield; switching after a voluntary yield is not a preemption.
	PrevYielded bool
	// Engine gives monitors and strategies read access to the state.
	Engine *Engine
}

// PrevInCands reports whether the previously scheduled thread is among
// the candidates (i.e. the execution can continue without a context
// switch).
func (c *ChooseContext) PrevInCands() bool {
	for _, a := range c.Cands {
		if a.Tid == c.PrevTid {
			return true
		}
	}
	return false
}

// IsPreemption reports whether choosing alt at this point constitutes
// a preemption in the CHESS sense: a forced context switch away from a
// thread that could have continued. Fairness-forced switches and
// switches after voluntary yields are not preemptions, and scheduler
// agents (flush steps) are exempt in both directions: delaying a flush
// or interleaving one is weak-memory nondeterminism, not a context
// switch of program code, so it never consumes a context bound.
func (c *ChooseContext) IsPreemption(alt Alt) bool {
	if c.Engine != nil &&
		(c.Engine.IsAgent(alt.Tid) ||
			(c.PrevTid != tidset.None && c.Engine.IsAgent(c.PrevTid))) {
		return false
	}
	return c.PrevTid != tidset.None &&
		alt.Tid != c.PrevTid &&
		c.PrevEnabled &&
		!c.PrevFairBlocked &&
		!c.PrevYielded
}

// Monitor observes an execution as the engine drives it. AfterInit
// fires once before the first step; AfterStep fires after every step.
type Monitor interface {
	AfterInit(e *Engine)
	AfterStep(e *Engine)
}

// Config controls one execution.
type Config struct {
	// Fair enables the fair scheduler (Algorithm 1). Without it the
	// schedulable set is simply the enabled set.
	Fair bool
	// FairK is the k-th-yield parameterization (§3); 0 means 1.
	FairK int
	// MaxSteps is the execution depth cap; an execution exceeding it
	// ends with outcome Diverged. 0 means DefaultMaxSteps.
	MaxSteps int64
	// RecordTrace captures a full per-step trace in the Result.
	RecordTrace bool
	// RecordDigests captures a per-step conformance StepDigest in the
	// Result, so a later strict replay can verify that the program
	// still conforms to the recorded schedule (see conformance.go).
	RecordDigests bool
	// Monitor, if non-nil, observes the execution.
	Monitor Monitor
	// CheckInvariants enables internal self-checks (P acyclicity and
	// the Theorem 3 equivalence) at every step. Used by tests.
	CheckInvariants bool
	// Watchdog is the stuck-thread detector: the maximum wall-clock
	// time the engine waits for a scheduled thread to park at its next
	// operation or exit. A thread that exceeds it is blocked or
	// spinning outside the conc API — uncontrolled code the engine can
	// neither schedule nor unwind — so the execution ends with outcome
	// Wedged and the thread is leaked, together with the hub goroutine
	// blocked in the switch to it (both end if the thread ever reaches
	// a scheduling point again). A hub switched into a thread cannot
	// watch a timer, so a nonzero Watchdog runs the hub on a goroutine
	// of its own, one per execution, and the watchdog on the caller's.
	// 0 disables the watchdog: the caller's goroutine is the hub, and a
	// non-cooperative thread hangs it forever.
	Watchdog time.Duration
	// Deadline, when nonzero, is an absolute wall-clock bound on the
	// whole execution, checked between steps: a search TimeLimit
	// threaded down so that one very long (but cooperative) execution
	// cannot blow past the search budget. Exceeding it ends the
	// execution with outcome Aborted and Result.DeadlineExceeded set,
	// and the execution is not counted, exactly as for Stop below.
	Deadline time.Time
	// Stop, when non-nil, interrupts the execution once it is closed. It
	// is polled on the tick Deadline is checked on, every 64 steps, so a
	// search's Stop reaches into an execution that would otherwise run to
	// MaxSteps. The execution ends with outcome Aborted and
	// Result.Interrupted set, and is not counted: Metrics gets no flush
	// and EventSink no exec_end for it (the step events already emitted
	// stay), because the search that resumes runs that index again.
	Stop <-chan struct{}
	// Metrics, if non-nil, receives this execution's telemetry in one
	// atomic flush when the execution ends (internal/obs). The per-step
	// hot path accumulates in plain engine-local counters, so metrics
	// cost almost nothing while the execution runs.
	Metrics *obs.Metrics
	// EventSink, if non-nil, receives structured trace events (schedule
	// points, yield-window closures, execution ends) as the execution
	// runs. Emission never blocks: a full sink drops events and counts
	// them (see obs.Recorder).
	EventSink *obs.Recorder
	// ExecIndex tags emitted events with the execution's index within
	// its search, for correlating the event stream with the report.
	ExecIndex int64
	// NoFastPath disables the baton-passing fast path (fastpath.go):
	// no thread decides a step for itself, each hands every scheduling
	// point to the hub, which decides and switches to the grantee. It
	// is the identical decide/commit sequence in the identical order,
	// so results are byte-for-byte the same; the flag exists as a
	// bisection escape hatch, for the determinism suite and for the
	// benchmark's engine.step_handoff_ns probe.
	NoFastPath bool
	// MemModel selects the memory model (internal/wm) this execution
	// runs under: core.MemSC (the default) or core.MemTSO. Under TSO
	// each thread's wm stores drain through a flush agent (AddAgent)
	// whose steps the search schedules like any thread's, so flush
	// nondeterminism is part of the explored tree and the fair
	// scheduler's priority relation P covers flush delay.
	MemModel core.MemModel
	// TSOBufCap bounds each thread's store buffer under TSO: a thread
	// storing into a full buffer blocks until a flush drains an entry.
	// 0 means unbounded.
	TSOBufCap int
}

// DefaultMaxSteps bounds executions when Config.MaxSteps is zero. The
// paper asks the user for a bound "orders of magnitude greater than
// the maximum number of steps the user expects".
const DefaultMaxSteps = 1 << 20

// Engine drives one execution of a model program. Create one per
// execution with Run, or reuse one across executions through a Pool
// (pool.go); outside a Pool an Engine must not be reused.
type Engine struct {
	cfg     Config
	chooser Chooser
	fair    *core.Fair
	threads []*thread
	thFree  []*thread // exited thread records recycled across pooled runs
	live    int       // program threads (never agents) not yet exited: newThread, runThread
	opBits  []opWord  // threads not exited, agents included, by pending op: setOp, runThread
	// idleWorkers holds the coroutines parked between thread bodies.
	// Pushes happen when the hub processes a thread's exit and pops when
	// it starts an embryo — both inside a section (fastpath.go), so no
	// locking is needed (same ownership discipline as e.threads).
	idleWorkers []*worker
	objects     []Object
	objMeta     []ObjMeta
	// aborting is read by model threads at scheduling points to unwind
	// themselves. It is atomic because after a wedge the stuck thread
	// runs concurrently with the caller's teardown and may observe the
	// flag without a happens-before edge from a coroutine switch.
	aborting atomic.Bool

	violation   *ViolationInfo
	wedge       *WedgeInfo
	deadlineHit bool
	interrupted bool // Config.Stop was found closed
	stepCount   int64
	yieldCnt    int64
	schedule    []Alt
	trace       []Step
	digests     []StepDigest
	res         *Result // what result fills and returns, run after run

	// Per-execution observability accumulators (plain locals flushed to
	// Config.Metrics once, in result): scheduling decisions made,
	// alternatives offered across them, and enabled-but-priority-blocked
	// (thread, step) pairs.
	choiceCnt      int64
	candCnt        int64
	fairBlockedCnt int64
	// wm accumulates the weak-memory subsystem's per-execution telemetry
	// (internal/wm increments it through WM()).
	wm WMCounters

	prevTid     tidset.Tid
	prevYielded bool
	lastInfo    OpInfo // OpInfo of the last executed transition

	// Scheduling state (fastpath.go). The granted-but-uncommitted step is
	// the "pending" step: its commit runs when the granted thread reaches
	// its next scheduling point (or exits).
	fast      bool
	schedGate atomic.Int64 // watchdog armed: 0 user code running, 1 section active, 2 poisoned
	progress  atomic.Int64 // watchdog armed: sections completed (its signal)
	pendTh    *thread      // thread the pending step was granted to
	pendAlt   Alt
	pendYield bool
	pendDig   StepDigest // pre-step digest of the pending step (RecordDigests)
	stashed   bool       // a thread decided the terminal outcome stashOut inline
	stashOut  Outcome
	// stashPanic, set with stashed, is a panic that unwound a thread out
	// of a section it was running (a chooser's, a monitor's, a failed
	// invariant); the hub re-raises it in Run's caller.
	stashPanic any
	inlineCnt  int64 // steps a thread granted itself: no switch at all
	handoffs   int64 // fast-path steps granted to a thread other than the one that ran last
	// hubDone carries the hub's return (or its panic) to the watchdog
	// when Config.Watchdog puts the hub on its own goroutine (watch).
	hubDone chan hubExit
	wdTimer *time.Timer

	// Hot-path scratch: one execution makes one scheduling decision per
	// step, so the per-step working storage is engine-owned and reused
	// rather than reallocated (see candidates, loop, Fingerprint).
	candsBuf []Alt         // backing for ChooseContext.Cands
	ctxBuf   ChooseContext // the context handed to the chooser
	esBuf    tidset.Set    // enabled set at the top of a step
	esAfter  tidset.Set    // enabled set after a step
	schedBuf tidset.Set    // fair-schedulable set for the current step
	fpBuf    []byte        // canonical state encoding scratch
	digBuf   []byte        // conformance-digest encoding scratch
	// esReady means esAfter holds the enabled set commit just computed
	// and no user code has run since, so the next decide reuses it as
	// its ES instead of recomputing the identical set.
	esReady bool
}

// Run executes the program whose main thread runs body, resolving all
// nondeterminism through chooser, and returns the execution's Result.
func Run(body func(*T), chooser Chooser, cfg Config) *Result {
	normalize(&cfg)
	e := newEngine(chooser, cfg)
	r := e.run(body)
	e.releaseWorkers()
	return r
}

// normalize fills the Config defaults both Run and Pool.Run apply.
func normalize(cfg *Config) {
	if cfg.FairK <= 0 {
		cfg.FairK = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
}

func newEngine(chooser Chooser, cfg Config) *Engine {
	e := &Engine{
		cfg:     cfg,
		chooser: chooser,
		prevTid: tidset.None,
		fast:    !cfg.NoFastPath,
		// Room for a short execution up front, so that a single-use engine
		// does not pay append's doublings one by one. (A pooled engine's
		// buffers are as long as its longest execution.)
		threads:     make([]*thread, 0, 8),
		idleWorkers: make([]*worker, 0, 8),
		candsBuf:    make([]Alt, 0, 8),
		schedule:    make([]Alt, 0, 64),
		res:         new(Result),
	}
	if cfg.RecordTrace {
		e.trace = make([]Step, 0, 64)
	}
	if cfg.RecordDigests {
		e.digests = make([]StepDigest, 0, 64)
	}
	if cfg.Fair {
		e.fair = core.NewFair(0, cfg.FairK)
	}
	return e
}

// run drives one execution on a prepared engine. The caller's goroutine
// is the hub (loop) unless the watchdog is armed: a hub switched into a
// thread cannot watch a timer, so then the hub gets a goroutine of its
// own and the caller's watches it (watch).
func (e *Engine) run(body func(*T)) *Result {
	// The hub holds the gate until it first switches to a thread.
	e.schedGate.Store(1)
	e.newThread("main", body, nil)
	if e.cfg.Monitor != nil {
		e.cfg.Monitor.AfterInit(e)
	}
	var outcome Outcome
	if e.cfg.Watchdog > 0 {
		outcome = e.watch()
	} else {
		outcome = e.loop()
	}
	// Build the result before abort unwinds the surviving threads:
	// deadlock reporting needs their pending operations.
	r := e.result(outcome)
	e.abort()
	return r
}

// allocThread allocates a thread record with the next dense id,
// recycling a record from a previous pooled run when one is free, and
// registers it with the fair scheduler. Shared by newThread and
// AddAgent; the caller fills in the role-specific fields.
func (e *Engine) allocThread(name string) *thread {
	var th *thread
	if n := len(e.thFree); n > 0 {
		th = e.thFree[n-1]
		e.thFree[n-1] = nil
		e.thFree = e.thFree[:n-1]
		*th = thread{slots: th.slots}
	} else {
		th = &thread{}
	}
	th.id = tidset.Tid(len(e.threads))
	th.name = name
	th.parent = tidset.None
	e.threads = append(e.threads, th)
	if th.id%64 == 0 {
		e.opBits = append(e.opBits, opWord{})
	}
	if e.fair != nil {
		e.fair.AddThread(th.id)
	}
	return th
}

// newThread allocates a thread record in embryo state. parent is nil
// for the main thread.
func (e *Engine) newThread(name string, body func(*T), parent *thread) *thread {
	th := e.allocThread(name)
	th.body = body
	th.status = statusEmbryo
	th.armed = parent == nil // the main thread starts immediately
	th.t = T{e: e, th: th}
	th.handle = Handle{th: th}
	th.start = startOp{th: th}
	e.setOp(th, &th.start)
	e.live++
	if parent != nil {
		th.parent = parent.id
		th.spawnSeq = parent.childCount
		parent.childCount++
	}
	return th
}

// AddAgent registers a scheduler agent: a thread record with no
// coroutine whose pending op the engine executes inline (decideLoop)
// when the search schedules it. The weak-memory subsystem registers
// one agent per store buffer, which makes buffer flushes schedulable
// transitions: they appear in the candidate set, in schedules and
// digests, and in the fair scheduler's priority relation exactly like
// thread steps. op stays the agent's pending op for the whole
// execution (a Guarded op's Enabled gates when it is schedulable); a
// non-nil Execute continuation replaces it.
//
// Agents do not count as live threads (the execution terminates when
// every real thread has exited, buffered or not), never appear in a
// deadlock's blocked list, and are exempt from preemption accounting —
// delaying a flush is the nondeterminism under search, not a context
// switch. Must be called from model code (an Op.Execute or a thread
// body), which is serialized with the scheduler.
func (e *Engine) AddAgent(name string, op Op) tidset.Tid {
	th := e.allocThread(name)
	th.status = statusAgent
	e.setOp(th, op)
	return th.id
}

// opWord is word i of Engine.opBits, tids 64i..64i+63: the threads
// whose pending op is unguarded, and those whose op is Guarded.
type opWord struct{ unguarded, guarded uint64 }

// opWord returns the word of opBits that holds th, and th's bit in it.
func (e *Engine) opWord(th *thread) (*opWord, uint64) {
	return &e.opBits[th.id/64], 1 << (uint(th.id) % 64)
}

// setOp publishes op as th's pending transition, caches it as a
// ChoiceOp and as Guarded, and files th in opBits.
func (e *Engine) setOp(th *thread, op Op) {
	th.pending = op
	th.choice, _ = op.(ChoiceOp)
	th.guard, _ = op.(Guarded)
	w, bit := e.opWord(th)
	*w = opWord{w.unguarded | bit, w.guarded &^ bit}
	if th.guard != nil {
		*w = opWord{w.unguarded &^ bit, w.guarded | bit}
	}
}

// IsAgent reports whether tid names a scheduler agent rather than a
// program thread.
func (e *Engine) IsAgent(t tidset.Tid) bool {
	return e.threads[t].status == statusAgent
}

// MemModel returns the memory model this execution runs under.
func (e *Engine) MemModel() core.MemModel { return e.cfg.MemModel }

// TSOBufCap returns the configured per-thread store-buffer capacity
// under TSO (0 = unbounded).
func (e *Engine) TSOBufCap() int { return e.cfg.TSOBufCap }

// WM returns the engine's weak-memory counters for internal/wm to
// increment from op Execute bodies (serialized with the scheduler).
func (e *Engine) WM() *WMCounters { return &e.wm }

// enabledSet computes ES into buf, reusing its storage: per word, the
// unguarded threads and the guarded ones whose Enabled holds.
func (e *Engine) enabledSet(buf tidset.Set) tidset.Set {
	threads := e.threads
	buf.Reset(len(threads))
	words := buf.Words()
	for i, ow := range e.opBits {
		w := ow.unguarded
		for g := ow.guarded; g != 0; g &= g - 1 {
			if threads[i*64+bits.TrailingZeros64(g)].guard.Enabled() {
				w |= g & -g
			}
		}
		words[i] = w
	}
	return buf
}

// decideLoop wraps decide, running agent steps inline: when the
// chooser grants an agent (a flush step), there is no coroutine to
// switch to, so the engine executes the step on the spot — the same
// prepare/Execute/commit sequence a thread step runs, just without
// the switch — and decides again, until a real thread is granted or
// the execution ends. Every decide call site, on a thread or on the
// hub, goes through decideLoop, so agent steps land in
// schedules, digests, traces, and fair-scheduler bookkeeping
// identically with the fast path on or off.
func (e *Engine) decideLoop() (alt Alt, out Outcome, terminal bool) {
	for {
		alt, out, terminal = e.decide()
		if terminal {
			return alt, out, true
		}
		th := e.threads[alt.Tid]
		if th.status != statusAgent {
			return alt, out, false
		}
		_, wasYield := e.prepare(alt)
		if cont := th.pending.Execute(); cont != nil {
			e.setOp(th, cont)
		}
		if out, done := e.commit(alt, wasYield); done {
			return alt, out, true
		}
	}
}

// decide runs the top half of a scheduling point: terminal-outcome
// checks, enabled/schedulable set computation, candidate expansion,
// and the chooser call. terminal = true means the execution is over
// with outcome out; otherwise alt is the granted alternative. The
// enabled set it computes stays in e.esBuf for the matching commit.
func (e *Engine) decide() (alt Alt, out Outcome, terminal bool) {
	if e.violation != nil {
		return alt, Violation, true
	}
	// No program thread left: no observer remains, so the execution
	// terminates even with stores still buffered in an agent.
	if e.live == 0 {
		return alt, Terminated, true
	}
	if e.stepCount >= e.cfg.MaxSteps {
		return alt, Diverged, true
	}
	// The outside world, amortized: one time.Now and one channel poll
	// every 64 steps.
	if e.stepCount&63 == 0 && e.cut() {
		return alt, Aborted, true
	}
	var es tidset.Set
	if e.esReady {
		// The previous commit computed the post-step enabled set and no
		// user code has run since (decide directly follows commit on
		// both paths), so it is exactly this step's ES. Swap buffers:
		// esAfter's storage becomes esBuf, which must survive to the
		// matching commit, and the old esBuf is rebuilt there.
		e.esBuf, e.esAfter = e.esAfter, e.esBuf
		e.esReady = false
		es = e.esBuf
	} else {
		es = e.enabledSet(e.esBuf)
		e.esBuf = es
	}
	var schedulable tidset.Set
	if e.fair != nil {
		schedulable = e.fair.SchedulableInto(&e.schedBuf, es)
		// schedulable ⊆ es word for word, so what is left of es is exactly
		// the enabled threads excluded by a priority edge here.
		sw := schedulable.Words()
		for i, w := range es.Words() {
			e.fairBlockedCnt += int64(bits.OnesCount64(w &^ sw[i]))
		}
	} else {
		schedulable = es
	}
	if e.cfg.CheckInvariants {
		e.checkInvariants(es, schedulable)
	}
	if schedulable.Empty() {
		return alt, Deadlock, true
	}
	cands := e.candidates(schedulable)
	e.ctxBuf = ChooseContext{
		Step:        int(e.stepCount),
		Cands:       cands,
		PrevTid:     e.prevTid,
		PrevYielded: e.prevYielded,
		Engine:      e,
	}
	ctx := &e.ctxBuf
	if e.prevTid != tidset.None {
		ctx.PrevEnabled = es.Contains(e.prevTid)
		ctx.PrevFairBlocked = ctx.PrevEnabled && !schedulable.Contains(e.prevTid)
	}
	e.choiceCnt++
	e.candCnt += int64(len(cands))
	alt, ok := e.chooser.Choose(ctx)
	if !ok {
		return alt, Aborted, true
	}
	if !e.validAlt(alt, schedulable) {
		panic(fmt.Sprintf("engine: chooser returned invalid alternative: %v not in %v", alt, cands))
	}
	if e.cfg.EventSink != nil {
		e.cfg.EventSink.Emit(obs.Event{
			Type: "schedule",
			Exec: e.cfg.ExecIndex,
			Step: e.stepCount,
			Schedule: &obs.ScheduleEvent{
				Tid:        int(alt.Tid),
				Candidates: len(cands),
				Enabled:    es.Len(),
				Preemption: ctx.IsPreemption(alt),
			},
		})
	}
	// Digest the pre-step state now (executing the step mutates it),
	// but append only in commit, alongside the schedule, so a wedged
	// step — absent from the schedule — leaves no digest either.
	if e.cfg.RecordDigests {
		e.pendDig = e.StepDigest(cands, alt)
	}
	return alt, 0, false
}

// cut reports whether the wall-clock deadline has passed or Stop has
// been closed, recording which.
func (e *Engine) cut() bool {
	if !e.cfg.Deadline.IsZero() && time.Now().After(e.cfg.Deadline) {
		e.deadlineHit = true
		return true
	}
	select {
	case <-e.cfg.Stop: // nil: never
		e.interrupted = true
		return true
	default:
		return false
	}
}

// prepare applies the granted alternative to its thread's pending op
// and does the engine-side per-step bookkeeping. It is the part of
// granting a step that both paths share; actually waking the thread is
// the caller's job.
func (e *Engine) prepare(alt Alt) (th *thread, wasYield bool) {
	th = e.threads[alt.Tid]
	op := th.pending
	if th.choice != nil && alt.Arg >= 0 {
		th.choice.SetChoice(alt.Arg)
	}
	wasYield = op.Yielding()
	e.lastInfo = op.Info()
	// Per-thread accounting happens here, inside the granting section,
	// so that result() never reads counters a wedged thread might still
	// be writing.
	th.steps++
	th.sinceLabel++
	if wasYield {
		th.yields++
	}
	return th, wasYield
}

// commit runs the bottom half of a scheduling point, after the granted
// step executed: record it, then do the fairness and monitor
// bookkeeping. done = true ends the execution with outcome out. The
// enabled set in e.esBuf must still be the one decide computed for
// this step.
func (e *Engine) commit(alt Alt, wasYield bool) (out Outcome, done bool) {
	// Record the step before the violation check so that the schedule
	// always includes the violating transition and a replay reproduces
	// the violation.
	es := e.esBuf
	esAfter := e.enabledSet(e.esAfter)
	e.esAfter = esAfter
	e.esReady = true
	e.schedule = append(e.schedule, alt)
	if e.cfg.RecordDigests {
		e.digests = append(e.digests, e.pendDig)
	}
	if e.cfg.RecordTrace {
		e.trace = append(e.trace, Step{
			Alt:          alt,
			Info:         e.lastInfo,
			Yield:        wasYield,
			EnabledAfter: esAfter.Len(),
		})
	}
	e.stepCount++
	if wasYield {
		e.yieldCnt++
	}
	if e.violation != nil {
		return Violation, true
	}
	if e.fair != nil {
		h, windowClosed := e.fair.OnStep(alt.Tid, wasYield, es, esAfter)
		if windowClosed && e.cfg.EventSink != nil {
			hs := make([]int, 0, h.Len())
			h.ForEach(func(u tidset.Tid) { hs = append(hs, int(u)) })
			e.cfg.EventSink.Emit(obs.Event{
				Type:  "yield",
				Exec:  e.cfg.ExecIndex,
				Step:  e.stepCount - 1,
				Yield: &obs.YieldEvent{Tid: int(alt.Tid), H: hs},
			})
		}
	}
	e.prevTid = alt.Tid
	e.prevYielded = wasYield
	if e.cfg.Monitor != nil {
		e.cfg.Monitor.AfterStep(e)
	}
	return 0, false
}

// validAlt reports whether alt is among the candidates of schedulable,
// without scanning them: a choice within its thread's ChoiceOp's arity,
// or noChoice when it has none.
func (e *Engine) validAlt(alt Alt, schedulable tidset.Set) bool {
	if !schedulable.Contains(alt.Tid) {
		return false
	}
	if c := e.threads[alt.Tid].choice; c != nil {
		return alt.Arg >= 0 && alt.Arg < c.Arity()
	}
	return alt.Arg == noChoice
}

// candidates expands the schedulable set into alternatives, one per
// thread, or one per choice value for threads at a ChoiceOp, in
// ascending order of thread id, then choice value — the order the bit
// scan produces. The returned slice is the engine's reused buffer: it is
// valid only until the next step (see ChooseContext).
func (e *Engine) candidates(schedulable tidset.Set) []Alt {
	cands := e.candsBuf[:0]
	for i, w := range schedulable.Words() {
		for ; w != 0; w &= w - 1 {
			t := tidset.Tid(i*64 + bits.TrailingZeros64(w))
			if c := e.threads[t].choice; c != nil {
				for arg, n := 0, c.Arity(); arg < n; arg++ {
					cands = append(cands, Alt{Tid: t, Arg: arg})
				}
			} else {
				cands = append(cands, Alt{Tid: t, Arg: noChoice})
			}
		}
	}
	e.candsBuf = cands
	return cands
}

// checkInvariants is Config.CheckInvariants' per-decision self-check:
// Theorem 3 on the fair scheduler's state, and the engine's counted and
// cached state (live counter, op caches, opBits, the enabled set)
// against a recount that type-asserts every thread's pending op.
func (e *Engine) checkInvariants(es, schedulable tidset.Set) {
	if e.fair != nil && !e.fair.Acyclic() {
		panic("engine: priority relation P is cyclic (Theorem 3 violated)")
	}
	if schedulable.Empty() != es.Empty() {
		panic("engine: T empty but ES nonempty (Theorem 3 violated)")
	}
	live := 0
	for _, th := range e.threads {
		if th.status != statusExited && th.status != statusAgent {
			live++
		}
		w, bit := e.opWord(th)
		got := opWord{w.unguarded & bit, w.guarded & bit}
		var want opWord // th's bits and enabledness, recounted from its record
		enabled := false
		if g, guarded := th.pending.(Guarded); th.status != statusExited {
			if c, _ := th.pending.(ChoiceOp); c != th.choice || g != th.guard {
				panic(fmt.Sprintf("engine: thread %d caches a stale pending op", th.id))
			}
			want, enabled = opWord{unguarded: bit}, !guarded || g.Enabled()
			if guarded {
				want = opWord{guarded: bit}
			}
		}
		if got != want || es.Contains(th.id) != enabled {
			panic(fmt.Sprintf("engine: thread %d filed as %+v and enabled %v, recount says %+v and %v",
				th.id, got, es.Contains(th.id), want, enabled))
		}
	}
	if live != e.live {
		panic(fmt.Sprintf("engine: live counter %d, %d threads not exited", e.live, live))
	}
}

// park publishes op as th's pending transition and returns once the
// scheduler has granted it and it (with any continuations) has
// executed. Called on the thread's own coroutine via T.Do.
func (e *Engine) park(th *thread, op Op) {
	if e.aborting.Load() {
		// Covers a wedged thread reaching a scheduling point after the
		// engine gave up on it.
		panic(killSentinel{})
	}
	e.setOp(th, op)
	if e.fast {
		e.parkFast(th)
		return
	}
	// NoFastPath: the thread decides nothing. It opens the section and
	// hands it to the hub, which commits, decides and resumes the grantee.
	for {
		e.enterSection()
		th.status = statusParked
		e.yieldToHub(th)
		cont := th.pending.Execute()
		if cont == nil {
			return
		}
		e.setOp(th, cont)
	}
}

// runThread runs one thread body on its worker coroutine: it converts
// panics into violations or clean unwinds and marks the thread exited.
// The worker then switches back to the hub (worker.go), which runs the
// exit's scheduling point.
func (e *Engine) runThread(th *thread) {
	returned := false
	defer func() {
		r := recover()
		if _, kill := r.(killSentinel); r != nil && !kill && th.status == statusParked {
			// A thread is parked from opening a section until it is granted
			// a step, so this panic is not the body's: it came out of the
			// scheduler code the thread was running for the engine, and the
			// thread still holds the section. It goes to the hub like a
			// terminal outcome; opening a section here would spin on the
			// gate this thread holds.
			e.stashed, e.stashPanic = true, r
			return
		}
		goexit := r == nil && !returned
		// The exit opens a section the hub finishes. It cannot be opened
		// when the engine is aborting — an unwind, or a wedged thread
		// waking after the engine gave up on it — and then the thread
		// touches no engine state: the teardown owns it.
		if e.tryEnterSection() {
			switch {
			case r != nil:
				e.recoverBody(th, r)
			case goexit && e.violation == nil:
				e.violation = &ViolationInfo{Tid: th.id, Msg: fmt.Sprintf(
					"%s called runtime.Goexit (testing.T.FailNow, Fatal or SkipNow?)", th.name)}
			}
			th.status = statusExited
			e.live--
			w, bit := e.opWord(th)
			*w = opWord{w.unguarded &^ bit, w.guarded &^ bit}
		}
		if goexit {
			// iter.Pull re-raises a coroutine's Goexit in whoever resumes
			// it, which would kill the caller of Run. So this coroutine
			// never finishes: it is retired here, parked for good, and is
			// the one goroutine such a body leaks.
			th.w.dead = true
			for {
				th.w.yield(struct{}{})
			}
		}
	}()
	th.body(&th.t)
	returned = true
}

// recoverBody converts a panic that unwound a thread body into a
// safety violation — unless it is the engine's own kill sentinel, or a
// violation was already recorded by Failf (which panics killSentinel).
func (e *Engine) recoverBody(th *thread, r any) {
	if _, ok := r.(killSentinel); ok {
		return
	}
	if e.violation == nil {
		e.violation = &ViolationInfo{
			Tid:     th.id,
			Msg:     fmt.Sprint(r),
			IsPanic: true,
			Stack:   string(debug.Stack()),
		}
	}
}

// fail records a safety violation on behalf of th and unwinds its
// body. It does not return.
func (e *Engine) fail(th *thread, msg string) {
	if e.violation == nil {
		e.violation = &ViolationInfo{Tid: th.id, Msg: msg}
	}
	panic(killSentinel{})
}

// abort unwinds every remaining model thread so Run leaks nothing: each
// parked thread is resumed once, observes aborting and unwinds back to
// its worker's idle loop. The one exception is a wedged thread: it is
// stuck in uncontrolled code, cannot be unwound, and is leaked with the
// hub that resumed it (it self-destructs at its next scheduling point,
// should it ever reach one).
func (e *Engine) abort() {
	e.aborting.Store(true)
	for _, th := range e.threads {
		switch th.status {
		case statusParked:
			th.w.next()
			th.status = statusExited
			e.recycleWorker(th)
		case statusEmbryo, statusAgent:
			th.status = statusExited
		case statusRunning:
			if e.wedge != nil && th.id == e.wedge.Tid {
				continue // leaked; see the wedge note above
			}
			panic("engine: thread still running at abort")
		}
	}
}

// result fills the engine's Result for the execution that just ended.
// The Result and its slices are the engine's own storage, written anew
// by the engine's next run (see Result).
func (e *Engine) result(outcome Outcome) *Result {
	r := e.res
	*r = Result{
		Outcome:     outcome,
		Steps:       e.stepCount,
		Schedule:    e.schedule,
		Trace:       e.trace,
		Digests:     e.digests,
		Threads:     len(e.threads),
		Yields:      e.yieldCnt,
		FairBlocked: e.fairBlockedCnt,
		PerThread:   r.PerThread[:0],
		Blocked:     r.Blocked[:0],
	}
	if e.fair != nil {
		r.EdgeAdds, r.EdgeErases = e.fair.EdgeStats()
	}
	r.WM = e.wm
	// A run cut by Stop or the deadline is dropped by every caller and its
	// index rerun on resume: counting it here would count it twice.
	cut := e.interrupted || e.deadlineHit
	if m := e.cfg.Metrics; m != nil && !cut {
		m.FlushExec(obs.ExecFlush{
			Steps:          e.stepCount,
			Yields:         e.yieldCnt,
			Choices:        e.choiceCnt,
			Candidates:     e.candCnt,
			FairBlocked:    e.fairBlockedCnt,
			EdgeAdds:       r.EdgeAdds,
			EdgeErases:     r.EdgeErases,
			InlineSteps:    e.inlineCnt,
			Handoffs:       e.handoffs,
			BufferedStores: e.wm.BufferedStores,
			Flushes:        e.wm.Flushes,
			Fences:         e.wm.Fences,
			Forwards:       e.wm.Forwards,
			Outcome:        outcome.String(),
		})
	}
	if sink := e.cfg.EventSink; sink != nil && !cut {
		sink.Emit(obs.Event{
			Type: "exec_end",
			Exec: e.cfg.ExecIndex,
			ExecEnd: &obs.ExecEndEvent{
				Outcome: outcome.String(),
				Steps:   int(e.stepCount),
				Yields:  int(e.yieldCnt),
			},
		})
	}
	if cap(r.PerThread) < len(e.threads) {
		r.PerThread = make([]ThreadStat, 0, len(e.threads))
	}
	for _, th := range e.threads {
		r.PerThread = append(r.PerThread, ThreadStat{
			Tid:    th.id,
			Name:   th.name,
			Steps:  th.steps,
			Yields: th.yields,
			Exited: th.status == statusExited,
			Agent:  th.status == statusAgent,
		})
	}
	if outcome == Violation {
		r.Violation = e.violation
	}
	if outcome == Wedged {
		r.Wedge = e.wedge
	}
	r.DeadlineExceeded = e.deadlineHit
	r.Interrupted = e.interrupted
	if outcome == Deadlock {
		// Agents are omitted: a deadlock means no agent was enabled
		// either (drained buffers), and an agent is never "blocked" in
		// the program's sense.
		for _, th := range e.threads {
			if th.status != statusExited && th.status != statusAgent {
				r.Blocked = append(r.Blocked, BlockedInfo{
					Tid:  th.id,
					Name: th.name,
					Op:   th.pending.Info(),
				})
			}
		}
	}
	return r
}

// RegisterObjectBy records a shared object created by t during the
// execution and returns its id. Called by the syncmodel constructors.
// The object is tagged with t and its per-thread creation sequence
// number, the stable identity heap canonicalization (internal/canon)
// keys on.
func (e *Engine) RegisterObjectBy(t *T, obj Object) ObjID {
	id := ObjID(len(e.objects))
	e.objects = append(e.objects, obj)
	th := t.th
	e.objMeta = append(e.objMeta, ObjMeta{Creator: th.id, Seq: th.objSeq})
	th.objSeq++
	return id
}

// ObjMeta is the creation identity of a registered object.
type ObjMeta struct {
	// Creator is the creating thread.
	Creator tidset.Tid
	// Seq is the creation index within the creating thread.
	Seq int
}

// Objects returns the registered objects in creation order.
func (e *Engine) Objects() []Object { return e.objects }

// ObjectMeta returns the creation identity of object id.
func (e *Engine) ObjectMeta(id ObjID) ObjMeta { return e.objMeta[id] }

// ThreadMeta returns the spawn identity of thread t: its parent and
// its spawn sequence number within the parent. The main thread has
// parent tidset.None.
func (e *Engine) ThreadMeta(t tidset.Tid) (parent tidset.Tid, seq int) {
	th := e.threads[t]
	return th.parent, th.spawnSeq
}

// StepCount returns the number of transitions executed so far.
func (e *Engine) StepCount() int64 { return e.stepCount }

// NumThreads returns the number of threads created so far.
func (e *Engine) NumThreads() int { return len(e.threads) }

// ThreadPC returns the last Label value of thread t.
func (e *Engine) ThreadPC(t tidset.Tid) int { return e.threads[t].pc }

// LastScheduled returns the thread scheduled in the most recent step.
func (e *Engine) LastScheduled() tidset.Tid { return e.prevTid }

// LastOpInfo returns the OpInfo of the most recently executed
// transition, for monitors that interpret the event stream.
func (e *Engine) LastOpInfo() OpInfo { return e.lastInfo }
