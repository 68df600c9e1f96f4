package engine

import (
	"fmt"
	"runtime"
	"time"
)

// Exactly one model thread logically runs at a time, so the engine
// needs no parallelism from its threads, only separate stacks: every
// thread body runs on a coroutine (worker.go), and the goroutine inside
// Engine.run — the hub — switches to the granted thread directly. A
// switch is a register swap on the same OS thread; the Go scheduler has
// no part in it.
//
// The fast path keeps even the hub out of most steps. The running
// thread carries the scheduling baton itself: at its own park it
// commits the step it just finished, decides the next one, and
//
//   - keeps running when it granted itself the next step (no switch at
//     all — the batching win: a thread with the only schedulable
//     transition executes a whole run of steps inline),
//   - switches back to the hub when it granted another thread; the hub
//     switches to the grantee (two coroutine switches), or
//   - stashes a terminal outcome and switches back to the hub.
//
// A thread returns to the hub in one more place: when its body
// finishes. The hub then runs that scheduling point (the finished
// coroutine cannot decide on behalf of the program and keep running).
// A panic inside a thread-run section takes the same road: runThread
// stashes it and the hub re-raises it, so it reaches Run's caller.
// Under Config.NoFastPath the thread decides nothing and hands every
// scheduling point to the hub. Thread or hub, it is the identical
// decide/prepare/commit sequence in the identical order, so schedules,
// digests, traces, events and counters are byte-for-byte the same with
// the fast path on or off.
//
// Concurrency protocol. Engine state is only touched inside "sections".
// A thread opens a section when it reaches a scheduling point or
// finishes; whoever ends it — the thread granting itself, or the hub
// about to switch to the grantee — does so immediately before user code
// runs. A section travels with the coroutine switch: a thread that
// switches to the hub hands it the open section, and the switch is the
// happens-before edge that orders one section after the previous one.
// The hub never opens a section: it starts with one (run) and afterwards
// only inherits them.
//
// Without a watchdog (Config.Watchdog == 0) that is the whole protocol:
// the hub is the caller's goroutine, every thread a coroutine on it, so
// nothing runs concurrently with a section and opening or ending one
// touches no shared word but e.aborting, read for the teardown's unwinds.
// With a watchdog armed, e.schedGate guards sections: opening one is a
// CAS 0→1, ending one bumps e.progress and stores 0. The watchdog
// (watch) is then the only concurrent party; it runs on the
// caller's goroutine while the hub runs on its own: it watches
// e.progress, and on a stall poisons the gate (CAS 0→2) so no further
// section can open, which makes declaring the wedge race-free. A
// genuine wedge always happens in user code — never inside a section —
// so the poison CAS succeeds exactly when the running thread is stuck.
// From then on the engine belongs to the caller's goroutine; the stuck
// thread and the hub blocked in the switch to it touch nothing but
// e.aborting and their own coroutine (switchTo).

// enterSection opens a section from a model thread. Threads never
// contend with each other for the gate (one runs at a time); the loop
// only spins when the watchdog poisoned it, in which case the thread
// unwinds as soon as the abort flag is up.
func (e *Engine) enterSection() {
	if !e.tryEnterSection() {
		panic(killSentinel{})
	}
}

// tryEnterSection is enterSection for callers that cannot unwind: it
// reports failure instead of panicking when the engine is aborting.
func (e *Engine) tryEnterSection() bool {
	for {
		// aborting is checked before the CAS: a section must never open
		// concurrently with the teardown.
		if e.aborting.Load() {
			return false
		}
		if e.cfg.Watchdog == 0 || e.schedGate.CompareAndSwap(0, 1) {
			return true
		}
		runtime.Gosched()
	}
}

// endSection ends the section the caller holds; user code runs next.
func (e *Engine) endSection() {
	if e.cfg.Watchdog > 0 {
		e.progress.Add(1)
		e.schedGate.Store(0)
	}
}

// yieldToHub switches from th's coroutine to the hub, handing it the
// open section, and returns when th is resumed: granted again, or by
// the abort teardown, which unwinds it.
func (e *Engine) yieldToHub(th *thread) {
	th.w.yield(struct{}{})
	if e.aborting.Load() {
		panic(killSentinel{})
	}
}

// parkFast is the fast-path park loop: the running thread, arriving at
// its next scheduling point with th.pending already published, drives
// the scheduler itself.
func (e *Engine) parkFast(th *thread) {
	for {
		e.enterSection()
		// From here the thread is logically parked at its scheduling
		// point — observable state (fingerprints encode thread status)
		// must not depend on who runs the section.
		th.status = statusParked
		// Commit the step that granted us this window: its
		// enabled-set-after must see our newly published pending op.
		out, done := e.commit(e.pendAlt, e.pendYield)
		if !done {
			var alt Alt
			var terminal bool
			alt, out, terminal = e.decideLoop()
			if !terminal {
				target, wasYield := e.prepare(alt)
				e.setPending(target, alt, wasYield)
				if target == th {
					// Self-grant: continue executing with no switch.
					th.status = statusRunning
					e.inlineCnt++
					e.endSection()
				} else {
					// A change of thread: the hub switches to the grantee.
					e.handoffs++
					e.yieldToHub(th)
				}
				cont := th.pending.Execute()
				if cont == nil {
					return
				}
				e.setOp(th, cont)
				continue
			}
		}
		// Terminal outcome decided on a thread: stash it for the hub and
		// park for good (only abort resumes us).
		e.stashed = true
		e.stashOut = out
		e.yieldToHub(th)
		panic("engine: stashed thread resumed outside abort")
	}
}

// setPending records the granted-but-uncommitted step; its commit runs
// at the granted thread's next scheduling point (or on its exit).
func (e *Engine) setPending(th *thread, alt Alt, wasYield bool) {
	e.pendTh = th
	e.pendAlt = alt
	e.pendYield = wasYield
}

// loop is the hub: Algorithm 1's main loop with the Choose made
// explicit through the Chooser. It decides the first step and every
// scheduling point a thread hands back undecided — each one under
// NoFastPath, only thread exits on the fast path — and in between
// switches to whichever thread holds the pending step. It runs inside a
// section except while switched away.
func (e *Engine) loop() Outcome {
	for first := true; ; first = false {
		alt, out, terminal := e.decideLoop()
		if terminal {
			return out
		}
		th, wasYield := e.prepare(alt)
		e.setPending(th, alt, wasYield)
		if e.fast && !first {
			// A fast-path thread hands a scheduling point back only by
			// exiting, so this grant changes thread. (The first grant and
			// NoFastPath's count as neither handoff nor inline step.)
			e.handoffs++
		}
		// Run the grantee and then whoever the threads grant inline,
		// until one hands its scheduling point back or ends the execution.
		for {
			if !e.switchTo(th) {
				return Wedged
			}
			if e.stashed {
				if e.stashPanic != nil {
					panic(e.stashPanic)
				}
				return e.stashOut
			}
			if e.pendTh == th {
				break
			}
			th = e.pendTh
		}
		if th.status == statusExited {
			e.recycleWorker(th)
		}
		if out, done := e.commit(e.pendAlt, e.pendYield); done {
			return out
		}
	}
}

// switchTo ends the hub's section and runs th until a thread switches
// back with the next one open. It reports false when instead the
// watchdog declared th wedged while it ran and th, waking later, unwound
// without opening a section: this hub was abandoned along with th, the
// engine belongs to the caller's goroutine, and all that is left to do
// is retire th's coroutine.
func (e *Engine) switchTo(th *thread) bool {
	switch th.status {
	case statusEmbryo:
		e.startThread(th)
	case statusParked:
	default:
		panic(fmt.Sprintf("engine: scheduling thread %d in status %s", th.id, th.status))
	}
	th.status = statusRunning
	w := th.w
	e.endSection()
	w.next()
	if e.aborting.Load() {
		if !w.dead {
			w.stop()
		}
		return false
	}
	return true
}

// hubExit is what a hub on its own goroutine leaves behind: its
// outcome, or the panic that ended it (an invalid chooser answer, a
// failed invariant), which watch re-raises in Run's caller.
type hubExit struct {
	out      Outcome
	panicked any
}

// hub runs loop on a goroutine of its own, for watch.
func (e *Engine) hub() {
	var x hubExit
	defer func() {
		x.panicked = recover()
		e.hubDone <- x
	}()
	x.out = e.loop()
}

// watch runs the hub on its own goroutine and the watchdog on the
// caller's. A switch between threads is invisible from outside, so the
// watchdog watches the progress counter: when no section completes for
// a full interval, the thread holding the pending step is stuck in
// uncontrolled code. Poisoning the gate before declaring the wedge
// closes the race with a section that is just opening or just ended.
func (e *Engine) watch() Outcome {
	// Channel and timer are the engine's, not the run's: a pooled engine
	// under the CLI's default watchdog runs hundreds of thousands of
	// short executions. (A wedged engine, whose abandoned hub may still
	// send, is never run again.)
	if e.hubDone == nil {
		e.hubDone = make(chan hubExit, 1) // an abandoned hub's send must not block
		e.wdTimer = time.NewTimer(e.cfg.Watchdog)
	} else {
		e.wdTimer.Reset(e.cfg.Watchdog)
	}
	go e.hub()
	timer := e.wdTimer
	last := e.progress.Load()
	for {
		select {
		case x := <-e.hubDone:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			if x.panicked != nil {
				panic(x.panicked)
			}
			return x.out
		case <-timer.C:
			timer.Reset(e.cfg.Watchdog)
			p := e.progress.Load()
			if p != last {
				// Steps completed during the interval: not stuck.
				last = p
				continue
			}
			if !e.schedGate.CompareAndSwap(0, 2) {
				// A section is open right now, so progress is imminent;
				// check again next interval.
				continue
			}
			if e.progress.Load() != p {
				// A section completed between the progress check and the
				// poison CAS: un-poison and keep waiting.
				e.schedGate.Store(0)
				last = e.progress.Load()
				continue
			}
			// Quiescent and poisoned: the pending step's thread never
			// reached its next scheduling point. The wedge is written
			// before the abort flag goes up: whoever observes the flag
			// may read it.
			th := e.pendTh
			e.wedge = &WedgeInfo{
				Tid:    th.id,
				Name:   th.name,
				LastOp: e.lastInfo,
				Step:   e.stepCount,
			}
			e.aborting.Store(true)
			return Wedged
		}
	}
}
