package syncmodel

import (
	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

var (
	sendSlot    = engine.NewOpSlot[sendOp]()
	recvSlot    = engine.NewOpSlot[recvOp]()
	tryRecvSlot = engine.NewOpSlot[tryRecvOp]()
	closeSlot   = engine.NewOpSlot[closeOp]()
)

// Channel is a FIFO channel of int64 values with a fixed capacity.
// Capacity zero gives rendezvous semantics: a send is enabled only
// when a receiver is parked on the channel and delivers directly to
// it. Send on a closed channel is a detected error; receive on a
// closed empty channel returns (0, false).
//
// Values are int64 so channel contents fingerprint canonically;
// programs pass richer payloads as indices into their own tracked
// arrays, as the progs package does.
type Channel struct {
	base
	capacity int
	buf      []int64
	closed   bool
	recvQ    []*recvWaiter // parked receivers, FIFO
}

type recvWaiter struct {
	tid       tidset.Tid
	delivered bool
	val       int64
}

// NewChannel creates a channel with the given capacity (>= 0).
func NewChannel(t *engine.T, name string, capacity int) *Channel {
	if capacity < 0 {
		t.Failf("channel %q: negative capacity %d", name, capacity)
	}
	c := &Channel{base: base{kind: "chan", name: name}, capacity: capacity}
	c.id = t.Engine().RegisterObjectBy(t, c)
	return c
}

// Len returns the number of buffered values.
func (c *Channel) Len() int { return len(c.buf) }

// Send enqueues v, blocking (disabled) while the channel is full (or,
// for capacity zero, until a receiver is waiting). Sending on a closed
// channel is a detected error.
func (c *Channel) Send(t *engine.T, v int64) {
	sendSlot.Do(t, sendOp{c: c, t: t, v: v})
}

// TrySend attempts a non-blocking send and reports success.
func (c *Channel) TrySend(t *engine.T, v int64) bool {
	return sendSlot.Do(t, sendOp{c: c, t: t, v: v, try: true}).ok
}

// Recv dequeues a value, blocking (disabled) while the channel is
// empty and open. On a closed empty channel it returns (0, false).
func (c *Channel) Recv(t *engine.T) (int64, bool) {
	op := recvSlot.Set(t, recvOp{c: c, w: recvWaiter{tid: t.ID()}})
	c.recvQ = append(c.recvQ, &op.w)
	t.Do(op)
	return op.val, op.ok
}

// TryRecv attempts a non-blocking receive. It returns (v, true, true)
// on success, (0, false, true) if the channel is closed and drained,
// and (0, _, false) if no value was available.
func (c *Channel) TryRecv(t *engine.T) (v int64, open bool, got bool) {
	op := tryRecvSlot.Do(t, tryRecvOp{c: c})
	return op.val, op.open, op.got
}

// Close closes the channel. Closing twice is a detected error.
func (c *Channel) Close(t *engine.T) {
	closeSlot.Do(t, closeOp{c: c, t: t})
}

// AppendState implements engine.Object.
func (c *Channel) AppendState(buf []byte) []byte {
	buf = appendBool(buf, c.closed)
	buf = appendVarint(buf, int64(len(c.buf)))
	for _, v := range c.buf {
		buf = appendVarint(buf, v)
	}
	buf = appendVarint(buf, int64(len(c.recvQ)))
	for _, w := range c.recvQ {
		buf = appendTid(buf, w.tid)
		buf = appendBool(buf, w.delivered)
		buf = appendVarint(buf, w.val)
	}
	return buf
}

// undeliveredReceiver returns the first parked receiver that has not
// been handed a value yet, or nil.
func (c *Channel) undeliveredReceiver() *recvWaiter {
	for _, w := range c.recvQ {
		if !w.delivered {
			return w
		}
	}
	return nil
}

type sendOp struct {
	c   *Channel
	t   *engine.T
	v   int64
	try bool
	ok  bool
}

func (o *sendOp) canDeliver() bool {
	if o.c.capacity == 0 {
		return o.c.undeliveredReceiver() != nil
	}
	return len(o.c.buf) < o.c.capacity
}

func (o *sendOp) Enabled() bool {
	// Enabled on a closed channel so the misuse fires as a violation
	// rather than a spurious deadlock.
	return o.try || o.c.closed || o.canDeliver()
}

func (o *sendOp) Execute() engine.Op {
	if o.c.closed {
		o.t.Failf("channel %q: send on closed channel", o.c.name)
	}
	if !o.canDeliver() {
		o.ok = false // try-send failure
		return nil
	}
	if o.c.capacity == 0 {
		w := o.c.undeliveredReceiver()
		w.delivered = true
		w.val = o.v
	} else {
		o.c.buf = append(o.c.buf, o.v)
	}
	o.ok = true
	return nil
}
func (o *sendOp) Yielding() bool { return false }
func (o *sendOp) Info() engine.OpInfo {
	kind := "chan.send"
	if o.try {
		kind = "chan.trysend"
	}
	return engine.OpInfo{Kind: kind, Obj: o.c.id, Aux: o.v}
}

// recvOp holds the thread's entry in the receiver queue, which Execute
// unlinks.
type recvOp struct {
	c   *Channel
	w   recvWaiter
	val int64
	ok  bool
}

func (o *recvOp) Enabled() bool {
	return o.w.delivered || len(o.c.buf) > 0 || o.c.closed
}

func (o *recvOp) Execute() engine.Op {
	switch {
	case o.w.delivered:
		o.val, o.ok = o.w.val, true
	case len(o.c.buf) > 0:
		o.val, o.ok = o.c.buf[0], true
		o.c.buf = o.c.buf[1:]
	default: // closed and empty
		o.val, o.ok = 0, false
	}
	o.c.removeWaiter(&o.w)
	return nil
}
func (o *recvOp) Yielding() bool { return false }
func (o *recvOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "chan.recv", Obj: o.c.id}
}

func (c *Channel) removeWaiter(w *recvWaiter) {
	for i, x := range c.recvQ {
		if x == w {
			c.recvQ = append(c.recvQ[:i], c.recvQ[i+1:]...)
			return
		}
	}
}

type tryRecvOp struct {
	c    *Channel
	val  int64
	open bool
	got  bool
}

func (o *tryRecvOp) Execute() engine.Op {
	o.open = !o.c.closed
	if len(o.c.buf) > 0 {
		o.val, o.got = o.c.buf[0], true
		o.c.buf = o.c.buf[1:]
	}
	return nil
}
func (o *tryRecvOp) Yielding() bool { return false }
func (o *tryRecvOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "chan.tryrecv", Obj: o.c.id}
}

type closeOp struct {
	c *Channel
	t *engine.T
}

func (o *closeOp) Execute() engine.Op {
	if o.c.closed {
		o.t.Failf("channel %q: close of closed channel", o.c.name)
	}
	o.c.closed = true
	return nil
}
func (o *closeOp) Yielding() bool { return false }
func (o *closeOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "chan.close", Obj: o.c.id}
}

// AppendStateMapped implements engine.CanonicalObject.
func (c *Channel) AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	buf = appendBool(buf, c.closed)
	buf = appendVarint(buf, int64(len(c.buf)))
	for _, v := range c.buf {
		buf = appendVarint(buf, v)
	}
	buf = appendVarint(buf, int64(len(c.recvQ)))
	for _, w := range c.recvQ {
		buf = appendTid(buf, mapTid(w.tid))
		buf = appendBool(buf, w.delivered)
		buf = appendVarint(buf, w.val)
	}
	return buf
}
