package syncmodel

import (
	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

var (
	onceBeginSlot     = engine.NewOpSlot[onceBeginOp]()
	onceCompleteSlot  = engine.NewOpSlot[onceCompleteOp]()
	barrierArriveSlot = engine.NewOpSlot[barrierArriveOp]()
	barrierWaitSlot   = engine.NewOpSlot[barrierWaitOp]()
)

// Once is a one-time initialization gate, like sync.Once: the first
// thread to arrive wins the right to initialize and everyone else
// blocks until it reports completion. Unlike a bare flag, Once
// captures the *blocking* semantics real implementations have — a
// loser is disabled until the winner finishes, making the classic
// "check the flag without waiting" bug expressible as its absence.
type Once struct {
	base
	state  int64 // 0 idle, 1 running, 2 done
	winner tidset.Tid
}

// NewOnce creates an idle Once.
func NewOnce(t *engine.T, name string) *Once {
	o := &Once{base: base{kind: "once", name: name}, winner: tidset.None}
	o.id = t.Engine().RegisterObjectBy(t, o)
	return o
}

// Done reports whether initialization completed.
func (o *Once) Done() bool { return o.state == 2 }

// Begin arbitrates: it returns true to exactly one caller — the
// winner, who must call Complete after initializing — and blocks
// every other caller until Complete, then returns false.
func (o *Once) Begin(t *engine.T) bool {
	return onceBeginSlot.Do(t, onceBeginOp{o: o, t: t}).won
}

// Complete marks initialization done; only the winner may call it.
func (o *Once) Complete(t *engine.T) {
	if o.state != 1 || o.winner != t.ID() {
		t.Failf("once %q: Complete by thread %d (state %d, winner %d)",
			o.name, t.ID(), o.state, o.winner)
	}
	onceCompleteSlot.Do(t, onceCompleteOp{o: o})
}

// Do runs f exactly once across all callers; losers block until the
// winner's f returns.
func (o *Once) Do(t *engine.T, f func(*engine.T)) {
	if o.Begin(t) {
		f(t)
		o.Complete(t)
	}
}

// AppendState implements engine.Object.
func (o *Once) AppendState(buf []byte) []byte {
	buf = appendVarint(buf, o.state)
	return appendTid(buf, o.winner)
}

// AppendStateMapped implements engine.CanonicalObject.
func (o *Once) AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	buf = appendVarint(buf, o.state)
	return appendTid(buf, mapTid(o.winner))
}

type onceBeginOp struct {
	o   *Once
	t   *engine.T
	won bool
}

// Enabled: the arbitration itself is always enabled when idle or done;
// a loser arriving while the winner runs is disabled until Complete.
func (op *onceBeginOp) Enabled() bool { return op.o.state != 1 }
func (op *onceBeginOp) Execute() engine.Op {
	if op.o.state == 0 {
		op.o.state = 1
		op.o.winner = op.t.ID()
		op.won = true
	}
	return nil
}
func (op *onceBeginOp) Yielding() bool { return false }
func (op *onceBeginOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "once.begin", Obj: op.o.id}
}

type onceCompleteOp struct{ o *Once }

func (op *onceCompleteOp) Execute() engine.Op {
	op.o.state = 2
	op.o.winner = tidset.None
	return nil
}
func (op *onceCompleteOp) Yielding() bool { return false }
func (op *onceCompleteOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "once.complete", Obj: op.o.id}
}

// Barrier is a reusable rendezvous for a fixed party count, like a
// sense-reversing barrier (progs/classic.go builds one by hand; this
// is the primitive version with blocking semantics: waiters are
// disabled, not spinning).
type Barrier struct {
	base
	parties int64
	arrived int64
	phase   int64
}

// NewBarrier creates a barrier for parties threads.
func NewBarrier(t *engine.T, name string, parties int64) *Barrier {
	if parties < 1 {
		t.Failf("barrier %q: parties = %d", name, parties)
	}
	b := &Barrier{base: base{kind: "barrier", name: name}, parties: parties}
	b.id = t.Engine().RegisterObjectBy(t, b)
	return b
}

// Phase returns the current phase number (completed rendezvous).
func (b *Barrier) Phase() int64 { return b.phase }

// Await arrives at the barrier and blocks until all parties have
// arrived in this phase.
func (b *Barrier) Await(t *engine.T) {
	barrierArriveSlot.Do(t, barrierArriveOp{b: b, t: t})
}

// AppendState implements engine.Object.
func (b *Barrier) AppendState(buf []byte) []byte {
	buf = appendVarint(buf, b.arrived)
	return appendVarint(buf, b.phase)
}

// barrierArriveOp is a two-phase transition: arrive, then (if not the
// last) wait for the phase to advance.
type barrierArriveOp struct {
	b *Barrier
	t *engine.T
}

func (op *barrierArriveOp) Execute() engine.Op {
	op.b.arrived++
	if op.b.arrived == op.b.parties {
		op.b.arrived = 0
		op.b.phase++
		return nil
	}
	return barrierWaitSlot.Set(op.t, barrierWaitOp{b: op.b, phase: op.b.phase})
}
func (op *barrierArriveOp) Yielding() bool { return false }
func (op *barrierArriveOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "barrier.arrive", Obj: op.b.id}
}

type barrierWaitOp struct {
	b     *Barrier
	phase int64
}

func (op *barrierWaitOp) Enabled() bool { return op.b.phase != op.phase }
func (op *barrierWaitOp) Execute() engine.Op {
	return nil
}
func (op *barrierWaitOp) Yielding() bool { return false }
func (op *barrierWaitOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "barrier.wait", Obj: op.b.id}
}
