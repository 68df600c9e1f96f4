package syncmodel

import "fairmc/internal/engine"

var (
	eventWaitSlot    = engine.NewOpSlot[eventWaitOp]()
	eventTimeoutSlot = engine.NewOpSlot[eventTimeoutOp]()
	eventSetSlot     = engine.NewOpSlot[eventSetOp]()
	eventSlab        = engine.NewObjSlab[Event]()
)

// Event is a Win32-style event object. A manual-reset event stays
// signaled until Reset; an auto-reset event releases exactly one
// waiter per Set. The Dryad- and APE-style programs in progs use
// events heavily, as the originals did.
type Event struct {
	base
	manual   bool
	signaled bool
}

// NewEvent creates an event. manual selects manual-reset semantics.
func NewEvent(t *engine.T, name string, manual, signaled bool) *Event {
	e, id := eventSlab.New(t)
	*e = Event{base: base{id: id, kind: "event", name: name}, manual: manual, signaled: signaled}
	return e
}

// Signaled reports the current state.
func (e *Event) Signaled() bool { return e.signaled }

// Wait blocks (disabled) until the event is signaled; an auto-reset
// event is consumed.
func (e *Event) Wait(t *engine.T) {
	eventWaitSlot.Do(t, eventWaitOp{e: e})
}

// WaitTimeout waits with a finite timeout: always enabled, yielding,
// reports whether the event was signaled.
func (e *Event) WaitTimeout(t *engine.T) bool {
	return eventTimeoutSlot.Do(t, eventTimeoutOp{e: e}).ok
}

// Set signals the event.
func (e *Event) Set(t *engine.T) {
	eventSetSlot.Do(t, eventSetOp{e: e, to: true})
}

// Reset unsignals the event.
func (e *Event) Reset(t *engine.T) {
	eventSetSlot.Do(t, eventSetOp{e: e, to: false})
}

// AppendState implements engine.Object.
func (e *Event) AppendState(buf []byte) []byte {
	return appendBool(buf, e.signaled)
}

type eventWaitOp struct{ e *Event }

func (o *eventWaitOp) Enabled() bool { return o.e.signaled }
func (o *eventWaitOp) Execute() engine.Op {
	if !o.e.manual {
		o.e.signaled = false
	}
	return nil
}
func (o *eventWaitOp) Yielding() bool { return false }
func (o *eventWaitOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "event.wait", Obj: o.e.id}
}

type eventTimeoutOp struct {
	e  *Event
	ok bool
}

func (o *eventTimeoutOp) Execute() engine.Op {
	o.ok = o.e.signaled
	if o.ok && !o.e.manual {
		o.e.signaled = false
	}
	return nil
}
func (o *eventTimeoutOp) Yielding() bool { return true }
func (o *eventTimeoutOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "event.timeout", Obj: o.e.id}
}

type eventSetOp struct {
	e  *Event
	to bool
}

func (o *eventSetOp) Execute() engine.Op {
	o.e.signaled = o.to
	return nil
}
func (o *eventSetOp) Yielding() bool { return false }
func (o *eventSetOp) Info() engine.OpInfo {
	kind := "event.set"
	if !o.to {
		kind = "event.reset"
	}
	return engine.OpInfo{Kind: kind, Obj: o.e.id}
}
