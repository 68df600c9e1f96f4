// Package por provides the independence oracle for sleep-set partial-
// order reduction.
//
// The paper names partial-order reduction as the natural complement to
// fair scheduling ("Partial-order reduction, however, can be used to
// significantly reduce the set of all fair schedules of fair-
// terminating programs, an interesting avenue of future research") —
// this package implements the classic sleep-set algorithm of
// Godefroid for the *unfair* searches, where two independent
// transitions commute outright. Sleep sets prune redundant
// interleavings (transitions), never states: a DFS with sleep sets
// visits exactly the states the plain DFS visits, in fewer
// executions — a property the tests check.
//
// A move is a thread's pending transition. Two moves are independent
// when they commute and neither affects the other's enabledness; the
// oracle is conservative (dependent when unsure).
package por

import (
	"fairmc/internal/engine"
	"fairmc/internal/tidset"
	"fairmc/internal/wm"
)

// Move identifies one alternative at a state: a thread, its pending
// operation, and (for data choices) the chosen value.
type Move struct {
	// Tid is the thread the move belongs to.
	Tid tidset.Tid
	// Arg is the data choice taken (0 for plain scheduling moves).
	Arg int
	// Info describes the thread's pending operation.
	Info engine.OpInfo
}

// MoveOf builds the Move for alternative alt in the current state.
func MoveOf(e *engine.Engine, alt engine.Alt) Move {
	snap := e.SnapshotThread(alt.Tid)
	return Move{Tid: alt.Tid, Arg: alt.Arg, Info: snap.Pending}
}

// kind is an op kind as the oracle reads it: one code per kind whose
// independence rules differ, kOther for every kind that conflicts with
// any other access to its object.
type kind uint8

const (
	kOther  kind = iota
	kRead        // load, any.load: never modifies shared state
	kArrGet      // read-only, and commutes with accesses to other elements
	kArrSet
	kYield // yield, sleep: local, and wakes every sleeper (Set.Step)
	kChoose
	kSpawnJoin // lifecycle: the spawned or joined thread is Aux
	kStart     // lifecycle: the starting thread itself
	kWMRead
	kWMWrite
	kWMBuf
	kWMBuf1 // a thread's first TSO store: allocates a thread id (wm.go)
	kWMFlush
	kWMFence
	kWMDrain
)

func kindOf(k string) kind {
	switch k {
	case "load", "any.load":
		return kRead
	case "arr.get":
		return kArrGet
	case "arr.set":
		return kArrSet
	case "yield", "sleep":
		return kYield
	case "choose":
		return kChoose
	case "spawn", "join":
		return kSpawnJoin
	case "start":
		return kStart
	case "wm.read":
		return kWMRead
	case "wm.write":
		return kWMWrite
	case "wm.buf":
		return kWMBuf
	case "wm.buf1":
		return kWMBuf1
	case "wm.flush":
		return kWMFlush
	case "wm.fence":
		return kWMFence
	case "wm.drain":
		return kWMDrain
	}
	return kOther
}

func (k kind) readOnly() bool  { return k == kRead || k == kArrGet }
func (k kind) localOnly() bool { return k == kYield || k == kChoose }
func (k kind) isWM() bool      { return k >= kWMRead }

// class is a move as the independence oracle reads it, derived once per
// move and never encoded. target is the thread a lifecycle operation
// (spawn/join/start) concerns — the spawned or joined thread, or the
// starting thread itself — and tidset.None for any other move. ids
// reports the moves that allocate thread ids: the lifecycle operations
// and a thread's first TSO store, which creates its store buffer and
// registers the buffer's flush agent. Two of these never commute (ids
// are assigned in execution order).
type class struct {
	tid, target tidset.Tid
	aux         int64
	obj         engine.ObjID
	kind        kind
	ids         bool
}

func classify(m Move) class {
	c := class{tid: m.Tid, target: tidset.None, obj: m.Info.Obj, aux: m.Info.Aux, kind: kindOf(m.Info.Kind)}
	switch c.kind {
	case kSpawnJoin:
		c.target = tidset.Tid(c.aux)
	case kStart:
		c.target = c.tid
	}
	c.ids = c.target != tidset.None || c.kind == kWMBuf1
	return c
}

// flushParts decodes a "wm.flush" move: the buffer's owning thread and
// the variable the next flush writes (ok = false for an empty buffer,
// which cannot be scheduled but can linger as a stale sleep-set entry).
func (c *class) flushParts() (owner tidset.Tid, v int64, ok bool) {
	owner = tidset.Tid(c.aux >> wm.AuxOwnerShift)
	hv := c.aux & (1<<wm.AuxOwnerShift - 1)
	return owner, hv - 1, hv != 0
}

// wmIndependent is the independence oracle for two wm moves on the
// same Memory (different threads). All wm ops on one Memory share its
// ObjID; the variable a memory access concerns is its Aux. The TSO
// structure gives finer commutativity than plain shared variables: a
// buffered store touches only the issuing thread's private buffer, so
// it is invisible to — and independent of — everything except its own
// buffer's flushes, while a flush writes memory on the owner's behalf
// and so conflicts like a store by the owner would. Conservative:
// dependent when unsure.
func wmIndependent(a, b *class) bool {
	ka, kb := a.kind, b.kind
	switch {
	case ka == kWMDrain || kb == kWMDrain:
		// Drain observes every buffer: conservatively dependent with all
		// wm moves.
		return false
	case ka == kWMFlush:
		return flushIndependent(a, b)
	case kb == kWMFlush:
		return flushIndependent(b, a)
	case ka == kWMRead && kb == kWMRead:
		return true
	case ka == kWMFence || kb == kWMFence:
		// A fence waits on its own buffer only; the moves that change
		// that buffer are the owner's stores (same tid, already
		// dependent) and its flushes (handled above).
		return true
	case ka == kWMBuf || ka == kWMBuf1 || kb == kWMBuf || kb == kWMBuf1:
		// A buffered store is invisible outside its own buffer; the
		// other move is by a different thread (same-tid pairs never get
		// here) and is not this buffer's flush.
		return true
	}
	// write vs write or read: conflict on the same variable.
	return a.aux != b.aux
}

// flushIndependent reports whether flush move f commutes with wm move
// o (f is "wm.flush"; o is any wm move except drain).
func flushIndependent(f, o *class) bool {
	owner, v, ok := f.flushParts()
	// An empty-buffer flush is stale, schedulable never: treat it as
	// dependent so it wakes (and is dropped) promptly. The owner's own
	// moves reorder buffer content, enable fences, and race the head
	// entry: dependent.
	if !ok || o.tid == owner {
		return false
	}
	switch o.kind {
	case kWMFlush:
		// Two flushes of different buffers commute unless both write
		// the same variable next, or one's thread owns the other's
		// buffer.
		oOwner, ov, oOK := o.flushParts()
		return oOK && oOwner != owner && ov != v && f.tid != oOwner
	case kWMRead, kWMWrite:
		// The flush writes v to memory: memory accesses to other
		// variables commute.
		return o.aux != v
	}
	// Another thread's buffered store touches only that thread's private
	// buffer, and a fence waits on its own buffer; this flush drains
	// another's.
	return true
}

// Independent reports whether the two moves commute: executing them in
// either order reaches a behaviorally identical state, and neither
// enables or disables the other. The relation is symmetric.
//
// Lifecycle operations are dependent with each other (thread ids are
// allocated in creation order) and with any move of the thread they
// concern (spawn enables its start; exit enables its join), and
// commute with everything else. A thread's start transition runs its
// prefix to the first scheduling point; prefixes that create shared
// objects commute behaviorally but permute raw object ids, which only
// matters for fingerprint identity — and the fingerprint-based modes
// (StatefulPrune) do not combine with the reductions using this
// oracle.
func Independent(a, b Move) bool {
	ca, cb := classify(a), classify(b)
	return independent(&ca, &cb)
}

// independent is Independent on classified moves.
func independent(a, b *class) bool {
	switch {
	case a.tid == b.tid:
		return false
	case a.ids && b.ids:
		// Reordering two id-allocating transitions permutes thread ids.
		return false
	case a.target != tidset.None:
		return b.tid != a.target
	case b.target != tidset.None:
		return a.tid != b.target
	case a.kind.localOnly() || b.kind.localOnly() || a.obj != b.obj:
		// Local-only moves have no effect on shared state or on other
		// threads' enabledness (valid only under unfair scheduling,
		// where yields carry no scheduler state).
		return true
	}
	// Same object: reads commute; array accesses to different elements
	// commute (Aux carries the element index); weak-memory moves get the
	// store/flush/load race semantics of wmIndependent.
	ka, kb := a.kind, b.kind
	switch {
	case ka.readOnly() && kb.readOnly():
		return true
	case (ka == kArrGet || ka == kArrSet) && (kb == kArrGet || kb == kArrSet):
		return a.aux != b.aux
	case ka.isWM() && kb.isWM():
		return wmIndependent(a, b)
	}
	return false
}

// Set is a sleep set: the moves proven redundant at the current state.
// The zero value is an empty set.
type Set struct {
	moves []Move
}

// Reset empties the set, keeping its capacity.
func (s *Set) Reset() { s.moves = s.moves[:0] }

// Len returns the number of sleeping moves.
func (s *Set) Len() int { return len(s.moves) }

// Add puts a move to sleep.
func (s *Set) Add(m Move) {
	s.moves = append(s.moves, m)
}

// Contains reports whether the alternative is asleep in the current
// state: a sleeping move matches when the thread's pending operation
// is still the one that went to sleep. A stale entry (the thread has
// moved on or exited) is dropped.
func (s *Set) Contains(e *engine.Engine, alt engine.Alt) bool {
	cur := e.SnapshotThread(alt.Tid)
	for i := 0; i < len(s.moves); {
		m := s.moves[i]
		if m.Tid != alt.Tid {
			i++
			continue
		}
		if !cur.Live || cur.Pending != m.Info {
			// Stale: the thread's move changed; wake it.
			s.moves = append(s.moves[:i], s.moves[i+1:]...)
			continue
		}
		if m.Arg == alt.Arg {
			return true
		}
		i++
	}
	return false
}

// Step advances the sleep set across the execution of chosen: moves
// dependent on it wake up (are dropped). A yield or sleep wakes them all:
// it says its thread waits for another (the paper adds {t} × H to P),
// and others kept asleep across it would starve. Dropping prunes less.
func (s *Set) Step(chosen Move) {
	c := classify(chosen)
	if c.kind == kYield {
		s.Reset()
		return
	}
	out := s.moves[:0]
	for _, m := range s.moves {
		if cm := classify(m); independent(&cm, &c) {
			out = append(out, m)
		}
	}
	s.moves = out
}
