package engine

import (
	"fmt"

	"fairmc/internal/tidset"
)

type threadStatus int8

const (
	statusEmbryo  threadStatus = iota // spawned, body not yet started
	statusParked                      // parked at a scheduling point
	statusRunning                     // executing between scheduling points
	statusExited                      // body returned (or was killed during abort)
	// statusAgent marks a scheduler agent (Engine.AddAgent): a thread
	// record with no coroutine whose pending op the engine executes
	// inline when the search schedules it. Agents hold this status for
	// the whole execution (abort retires them to statusExited). The
	// value comes after statusExited so the status bytes of ordinary
	// threads — which fingerprints encode — are unchanged.
	statusAgent
)

func (s threadStatus) String() string {
	switch s {
	case statusEmbryo:
		return "embryo"
	case statusParked:
		return "parked"
	case statusRunning:
		return "running"
	case statusExited:
		return "exited"
	case statusAgent:
		return "agent"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// thread is the engine-side record of one model thread. Records are
// recycled across a pooled engine's executions (allocThread), and
// everything a thread needs per step lives in its record rather than on
// the heap: the handles handed to user code, the engine's own ops, and
// the slots model objects keep their ops in (OpSlot).
type thread struct {
	id     tidset.Tid
	name   string
	body   func(*T)
	status threadStatus

	pending Op       // valid while status is embryo or parked; set by Engine.setOp
	choice  ChoiceOp // pending as a ChoiceOp, nil when it is not one
	guard   Guarded  // pending as a Guarded op, nil when it is always enabled
	armed   bool     // spawn transition executed; start is schedulable
	w       *worker  // coroutine running this body, from start to exit

	t      T      // the handle the body receives
	handle Handle // the handle the parent's Go returns

	// The engine's own ops. One of each suffices because a thread has
	// exactly one published op at a time.
	start  startOp
	spawn  spawnOp
	join   joinOp
	yield  yieldOp
	choose chooseOp
	// slots[i] is this thread's op for OpSlot i, made on first use. The
	// one field that survives recycling.
	slots []any

	pc         int   // last Label() value, for state fingerprints
	sinceLabel int   // transitions since the last Label (intra-label pc)
	steps      int64 // transitions taken by this thread
	yields     int64 // yielding transitions taken
	spawnSeq   int   // creation index within the parent thread
	childCount int   // threads spawned by this thread so far
	objSeq     int   // objects registered by this thread so far
	parent     tidset.Tid
}

// enabled reports whether th's pending op can fire, as enabledSet does.
func (th *thread) enabled() bool { return th.guard == nil || th.guard.Enabled() }

// killSentinel is panicked through a model thread to unwind it when
// the engine aborts an execution. User code must not recover it; the
// run wrapper re-checks and re-panics if it leaks into user recovery.
type killSentinel struct{}

// T is the per-thread handle passed to every model-thread body. All
// interaction with shared state goes through T (directly or via the
// synchronization objects in internal/syncmodel, which call T.Do).
//
// A T is only valid inside its own thread body, during the execution
// that created it. A body runs on a coroutine, not on a goroutine of
// its own, and must end by returning or panicking: one that calls
// runtime.Goexit — which is what testing.T's FailNow, Fatal and
// SkipNow do — ends the execution with a Violation naming the thread,
// and leaks its coroutine.
type T struct {
	e  *Engine
	th *thread
}

// ID returns the thread's identifier (dense, creation order, main = 0).
func (t *T) ID() tidset.Tid { return t.th.id }

// Name returns the thread's name.
func (t *T) Name() string { return t.th.name }

// Do publishes op as this thread's next transition and parks until the
// scheduler grants and executes it. Synchronization objects use Do to
// implement their operations; test programs normally use the
// higher-level API.
//
// The engine holds op until Do returns and not a moment longer (see
// Op), so the caller may read results out of it and then reuse it for
// this thread's next Do; OpSlot packages exactly that.
func (t *T) Do(op Op) {
	t.e.park(t.th, op)
}

// Go spawns a new model thread running body. The spawn itself is a
// scheduling point; the new thread's first transition (running body to
// its first scheduling point) is a separately scheduled step, so the
// checker explores orderings between parent and child from the very
// first instruction.
func (t *T) Go(name string, body func(*T)) *Handle {
	nt := t.e.newThread(name, body, t.th)
	op := &t.th.spawn
	op.child = nt
	t.Do(op)
	return &nt.handle
}

// spawnOp makes thread creation itself a transition.
type spawnOp struct {
	child *thread
}

func (o *spawnOp) Execute() Op {
	o.child.armed = true
	return nil
}
func (o *spawnOp) Yielding() bool { return false }
func (o *spawnOp) Info() OpInfo {
	return OpInfo{Kind: "spawn", Obj: NoObj, Aux: int64(o.child.id)}
}

// Handle refers to a spawned thread. Like a T it is valid during the
// execution that created it.
type Handle struct {
	th *thread
}

// ID returns the spawned thread's identifier.
func (h *Handle) ID() tidset.Tid { return h.th.id }

// Join parks t until the target thread has exited.
func (h *Handle) Join(t *T) {
	op := &t.th.join
	op.target = h.th
	t.Do(op)
}

// Yield is an explicit processor yield: the good-samaritan signal. It
// is always enabled and has no effect on program state, but it closes
// the thread's fairness window (Algorithm 1, lines 23–29).
func (t *T) Yield() {
	t.yield("yield", 0)
}

// Sleep models sleeping for a finite duration d (an opaque number of
// model ticks). Per the paper (§4), any synchronization operation with
// a finite timeout is treated as a yield; Sleep is exactly that.
func (t *T) Sleep(d int64) {
	t.yield("sleep", d)
}

func (t *T) yield(kind string, aux int64) {
	op := &t.th.yield
	*op = yieldOp{kind: kind, aux: aux}
	t.Do(op)
}

// Choose introduces data nondeterminism: the checker explores all
// values 0..n-1. n must be at least 1.
func (t *T) Choose(n int) int {
	if n < 1 {
		t.Failf("Choose(%d): arity must be >= 1", n)
	}
	op := &t.th.choose
	*op = chooseOp{n: n}
	t.Do(op)
	return op.choice
}

// Label records a program-counter label for state fingerprinting. It
// is not a scheduling point. Coverage experiments label loop heads so
// that a state fingerprint determines future behaviour (the paper adds
// the equivalent facility manually to its two coverage programs).
//
// Between labels the engine counts transitions, so the pair
// (label, transitions-since-label) identifies the exact program point
// as long as the code between two labels is straight-line — which
// labeling every loop head guarantees.
func (t *T) Label(pc int) {
	t.th.pc = pc
	t.th.sinceLabel = 0
}

// Assert reports a safety violation and aborts the execution if cond
// is false.
func (t *T) Assert(cond bool, msg string) {
	if !cond {
		t.Failf("assertion failed: %s", msg)
	}
}

// Failf reports a safety violation with a formatted message and aborts
// the current execution. It does not return.
func (t *T) Failf(format string, args ...any) {
	t.e.fail(t.th, fmt.Sprintf(format, args...))
	panic(killSentinel{}) // unreachable: fail panics; kept for clarity
}

// Engine returns the engine running this thread, for the engine
// services model objects use: the memory model, agents, telemetry.
func (t *T) Engine() *Engine { return t.e }
