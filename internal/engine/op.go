// Package engine is the deterministic cooperative execution runtime
// underneath the fair stateless model checker.
//
// CHESS controls a real program by intercepting every Win32/.NET
// synchronization API. We obtain the same control by construction:
// model threads are coroutines that perform every shared-state access
// through an Op published at a scheduling point, where the thread
// parks until the checker grants it the step and switches to it.
// Exactly one model thread runs at a time — the engine does all the
// scheduling, the Go scheduler none — so execution is fully
// deterministic and an execution is replayable from its schedule (the
// sequence of (thread, choice) decisions) alone — the essence of
// stateless model checking.
package engine

import (
	"fmt"

	"fairmc/internal/tidset"
)

// Op is one pending operation of a parked thread: the thread's next
// transition, enabled in every state unless it is Guarded. The engine
// runs Execute (on the owning thread's coroutine) when the scheduler
// grants the step.
//
// Lifetime: a thread has exactly one published op at a time, and the
// engine is its only holder — from T.Do (or the Execute that returned
// it as a continuation) until its own Execute returns. Everything else
// that looks at an op (traces, digests, fingerprints, results) copies
// the OpInfo value out. So the op's storage may be reused by the same
// thread as soon as T.Do returns; OpSlot is that reuse, and every op
// of the model objects lives in one.
type Op interface {
	// Execute applies the transition's effect. It runs on the owning
	// thread's coroutine, strictly serialized with all other model
	// code. A non-nil return value is a continuation: the thread
	// re-parks with that op instead of resuming user code (used for
	// multi-phase operations such as condition-variable wait, which
	// must release, block, and reacquire). A continuation must not be
	// the op returning it: when both live in slots, they are of
	// different kinds.
	Execute() Op

	// Yielding reports whether this transition is a yield in the
	// paper's sense: an explicit processor yield or a synchronization
	// operation with a finite timeout (§4: inference of yielding
	// transitions). The fair scheduler closes the thread's window
	// after a yielding transition.
	Yielding() bool

	// Info describes the operation for traces and fingerprints.
	Info() OpInfo
}

// Guarded is implemented by operations that can be disabled: a lock, a
// wait, a join, a receive. The engine asks Enabled of every pending
// Guarded op at every scheduling point and remembers no earlier answer,
// so Enabled may depend on any state. A thread whose pending op is
// disabled is blocked. Forgetting Guarded makes an op always enabled.
type Guarded interface {
	Op
	// Enabled reports whether the transition can currently fire.
	Enabled() bool
}

// ChoiceOp is implemented by operations that introduce data
// nondeterminism (T.Choose). The search resolves the choice and the
// engine calls SetChoice before Execute.
type ChoiceOp interface {
	Op
	// Arity returns the number of alternatives; choices are 0..Arity-1.
	Arity() int
	// SetChoice fixes the alternative Execute will take.
	SetChoice(int)
}

// OpInfo is the trace- and fingerprint-facing description of an Op.
type OpInfo struct {
	Kind string // e.g. "lock", "yield", "store"
	Obj  ObjID  // object operated on, or NoObj
	Aux  int64  // operation-specific detail (value stored, chosen index…)
}

func (i OpInfo) String() string {
	switch {
	case i.Obj == NoObj && i.Aux == 0:
		return i.Kind
	case i.Obj == NoObj:
		return fmt.Sprintf("%s(%d)", i.Kind, i.Aux)
	default:
		return fmt.Sprintf("%s(#%d,%d)", i.Kind, i.Obj, i.Aux)
	}
}

// OpSlot is a reusable per-thread op of type O: every thread record
// holds at most one O for the slot, made when the thread first asks
// and kept as the record is recycled from execution to execution. A
// model-object method publishes the thread's op and reads its results
// back, so a step allocates no op:
//
//	var loadSlot = engine.NewOpSlot[loadOp]()
//
//	return loadSlot.Do(t, loadOp{v: v}).res
//
// One slot per op type is enough because a thread publishes one op at
// a time and a continuation is of another type than the op returning
// it (see Op). An object that must outlive the Do — a waiter queued on
// a condition variable — may live inside the op only if it is unlinked
// before the thread can publish that type again.
type OpSlot[O any, P interface {
	*O
	Op
}] struct{ idx int }

// opSlots counts the registered slots. Written during package
// initialization only (NewOpSlot), read-only once executions run.
var opSlots int

// NewOpSlot registers a slot for ops of type O (P is inferred: *O,
// which must implement Op). Call it from a package-level variable
// initializer: the slot table's size is fixed by the time the first
// thread asks for an op.
func NewOpSlot[O any, P interface {
	*O
	Op
}]() OpSlot[O, P] {
	s := OpSlot[O, P]{idx: opSlots}
	opSlots++
	return s
}

// Set overwrites t's op for the slot with op and returns it, for an
// Execute that returns it as its continuation.
func (s OpSlot[O, P]) Set(t *T, op O) P {
	th := t.th
	if th.slots == nil {
		th.slots = make([]any, opSlots)
	}
	p, ok := th.slots[s.idx].(P)
	if !ok {
		p = new(O)
		th.slots[s.idx] = p
	}
	*p = op
	return p
}

// Do is T.Do on t's op for the slot, set to op. The returned op holds
// the results until t's next Do on the slot.
func (s OpSlot[O, P]) Do(t *T, op O) P {
	p := s.Set(t, op)
	t.Do(p)
	return p
}

// ObjID identifies a registered synchronization object or shared
// variable within one execution. IDs are assigned in creation order.
type ObjID int32

// NoObj marks operations that touch no registered object.
const NoObj ObjID = -1

// Object is a registered shared object: a sync primitive or shared
// variable. Objects expose their state for fingerprinting. An object
// lives in its engine's store for its type (ObjSlab), so it belongs to
// the execution that created it: under a Pool it is valid until the
// next Pool.Run, which recycles it.
type Object interface {
	// ObjectInfo returns the object's id, kind and name.
	ObjectInfo() (ObjID, string, string)
	// AppendState appends a canonical encoding of the object's
	// current state. Encodings must be self-delimiting and
	// deterministic: equal logical states yield equal bytes.
	AppendState(buf []byte) []byte
}

// Alt is one alternative at a scheduling point: schedule thread Tid,
// and if its pending op is a ChoiceOp, resolve it to Arg (otherwise
// Arg is -1).
type Alt struct {
	Tid tidset.Tid
	Arg int
}

func (a Alt) String() string {
	if a.Arg < 0 {
		return fmt.Sprintf("t%d", a.Tid)
	}
	return fmt.Sprintf("t%d:%d", a.Tid, a.Arg)
}

// noChoice is the Arg value for alternatives without data choice.
const noChoice = -1

// startOp is the pending op of a spawned-but-not-yet-started thread:
// its first transition runs the thread body to its first scheduling
// point. The thread record is allocated while the parent is still
// running (before the parent's spawn transition is scheduled), so the
// start transition is enabled only once the parent's spawn op has
// actually executed (th.armed). Execute is never called; the engine
// starts the body on a worker instead.
type startOp struct {
	th *thread
}

func (o *startOp) Enabled() bool  { return o.th.armed }
func (o *startOp) Execute() Op    { panic("engine: startOp.Execute must not be called") }
func (o *startOp) Yielding() bool { return false }
func (o *startOp) Info() OpInfo   { return OpInfo{Kind: "start", Obj: NoObj} }

// yieldOp implements T.Yield and T.Sleep: unguarded, no effect,
// and yielding — the good-samaritan signal the fair scheduler keys on.
type yieldOp struct {
	kind string
	aux  int64
}

func (*yieldOp) Execute() Op    { return nil }
func (*yieldOp) Yielding() bool { return true }
func (o *yieldOp) Info() OpInfo { return OpInfo{Kind: o.kind, Obj: NoObj, Aux: o.aux} }

// chooseOp implements T.Choose(n): a data-nondeterminism point with n
// alternatives, resolved by the search.
type chooseOp struct {
	n      int
	choice int
}

func (o *chooseOp) Execute() Op    { return nil }
func (o *chooseOp) Yielding() bool { return false }
func (o *chooseOp) Arity() int     { return o.n }
func (o *chooseOp) SetChoice(c int) {
	if c < 0 || c >= o.n {
		panic(fmt.Sprintf("engine: choice %d out of range [0,%d)", c, o.n))
	}
	o.choice = c
}
func (o *chooseOp) Info() OpInfo {
	return OpInfo{Kind: "choose", Obj: NoObj, Aux: int64(o.choice)}
}

// joinOp blocks until the target thread exits.
type joinOp struct {
	target *thread
}

func (o *joinOp) Enabled() bool  { return o.target.status == statusExited }
func (o *joinOp) Execute() Op    { return nil }
func (o *joinOp) Yielding() bool { return false }
func (o *joinOp) Info() OpInfo {
	return OpInfo{Kind: "join", Obj: NoObj, Aux: int64(o.target.id)}
}
