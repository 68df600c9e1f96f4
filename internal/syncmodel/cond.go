package syncmodel

import (
	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

var (
	condWaitSlot      = engine.NewOpSlot[condWaitOp]()
	condReacquireSlot = engine.NewOpSlot[condReacquireOp]()
	condSignalSlot    = engine.NewOpSlot[condSignalOp]()
)

// Cond is a condition variable bound to a Mutex. Wait atomically
// releases the mutex and blocks until signaled, then reacquires the
// mutex before returning — a two-phase transition in the model.
// Signal wakes waiters in FIFO order (deterministically).
type Cond struct {
	base
	m       *Mutex
	waiters []*condWaiter
}

type condWaiter struct {
	tid      tidset.Tid
	signaled bool
}

// NewCond creates a condition variable using m as its lock.
func NewCond(t *engine.T, name string, m *Mutex) *Cond {
	c := &Cond{base: base{kind: "cond", name: name}, m: m}
	c.id = t.Engine().RegisterObjectBy(t, c)
	return c
}

// Wait releases the mutex, blocks until signaled, and reacquires the
// mutex. The caller must hold the mutex.
func (c *Cond) Wait(t *engine.T) {
	if c.m.owner != t.ID() {
		t.Failf("cond %q: Wait without holding mutex %q", c.name, c.m.name)
	}
	condWaitSlot.Do(t, condWaitOp{c: c, t: t})
}

// Signal marks the longest-waiting unsignaled waiter runnable. It may
// be called with or without the mutex held.
func (c *Cond) Signal(t *engine.T) {
	condSignalSlot.Do(t, condSignalOp{c: c, all: false})
}

// Broadcast marks every waiter runnable.
func (c *Cond) Broadcast(t *engine.T) {
	condSignalSlot.Do(t, condSignalOp{c: c, all: true})
}

// NumWaiters returns the number of threads currently waiting.
func (c *Cond) NumWaiters() int { return len(c.waiters) }

// AppendState implements engine.Object.
func (c *Cond) AppendState(buf []byte) []byte {
	buf = appendVarint(buf, int64(len(c.waiters)))
	for _, w := range c.waiters {
		buf = appendTid(buf, w.tid)
		buf = appendBool(buf, w.signaled)
	}
	return buf
}

// condWaitOp is phase one: release the mutex and enter the wait queue.
type condWaitOp struct {
	c *Cond
	t *engine.T
}

func (o *condWaitOp) Execute() engine.Op {
	o.c.m.owner = tidset.None
	re := condReacquireSlot.Set(o.t, condReacquireOp{c: o.c, t: o.t, w: condWaiter{tid: o.t.ID()}})
	o.c.waiters = append(o.c.waiters, &re.w)
	return re
}
func (o *condWaitOp) Yielding() bool { return false }
func (o *condWaitOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "cond.wait", Obj: o.c.id}
}

// condReacquireOp is phase two: once signaled, reacquire the mutex. It
// holds the thread's entry in the wait queue, which Execute unlinks.
type condReacquireOp struct {
	c *Cond
	t *engine.T
	w condWaiter
}

func (o *condReacquireOp) Enabled() bool {
	return o.w.signaled && o.c.m.owner == tidset.None
}
func (o *condReacquireOp) Execute() engine.Op {
	o.c.m.owner = o.t.ID()
	for i, w := range o.c.waiters {
		if w == &o.w {
			o.c.waiters = append(o.c.waiters[:i], o.c.waiters[i+1:]...)
			break
		}
	}
	return nil
}
func (o *condReacquireOp) Yielding() bool { return false }
func (o *condReacquireOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "cond.reacquire", Obj: o.c.id}
}

type condSignalOp struct {
	c   *Cond
	all bool
}

func (o *condSignalOp) Execute() engine.Op {
	for _, w := range o.c.waiters {
		if !w.signaled {
			w.signaled = true
			if !o.all {
				break
			}
		}
	}
	return nil
}
func (o *condSignalOp) Yielding() bool { return false }
func (o *condSignalOp) Info() engine.OpInfo {
	kind := "cond.signal"
	if o.all {
		kind = "cond.broadcast"
	}
	return engine.OpInfo{Kind: kind, Obj: o.c.id}
}

// AppendStateMapped implements engine.CanonicalObject.
func (c *Cond) AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	buf = appendVarint(buf, int64(len(c.waiters)))
	for _, w := range c.waiters {
		buf = appendTid(buf, mapTid(w.tid))
		buf = appendBool(buf, w.signaled)
	}
	return buf
}
