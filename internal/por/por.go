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

// readOnly reports operations that never modify shared state.
func readOnly(kind string) bool {
	switch kind {
	case "load", "any.load", "arr.get":
		return true
	}
	return false
}

// localOnly reports operations with no effect on shared state or on
// other threads' enabledness (valid only under unfair scheduling,
// where yields carry no scheduler state).
func localOnly(kind string) bool {
	switch kind {
	case "yield", "sleep", "choose":
		return true
	}
	return false
}

// lifecycleTarget reports whether the move is a thread-lifecycle
// operation (spawn/join/start) and which thread it concerns: the
// spawned/joined thread, or the starting thread itself.
func lifecycleTarget(m Move) (tidset.Tid, bool) {
	switch m.Info.Kind {
	case "spawn", "join":
		return tidset.Tid(m.Info.Aux), true
	case "start":
		return m.Tid, true
	}
	return tidset.None, false
}

// tidAlloc reports moves that allocate a thread id as a side effect: a
// thread's first TSO store creates its store buffer and registers the
// buffer's flush agent. Like the lifecycle operations, two of these
// never commute (ids are assigned in execution order), and neither do
// a tid-allocating move and a lifecycle move.
func tidAlloc(kind string) bool { return kind == "wm.buf1" }

// isWM reports operations of the weak-memory subsystem (internal/wm).
// All wm ops on one Memory share its ObjID; variable- and buffer-level
// granularity lives in wmIndependent.
func isWM(kind string) bool {
	switch kind {
	case "wm.read", "wm.write", "wm.buf", "wm.buf1", "wm.flush", "wm.fence", "wm.drain":
		return true
	}
	return false
}

// wmVar returns the variable a wm memory access concerns.
func wmVar(m Move) int64 { return m.Info.Aux }

// flushParts decodes a "wm.flush" move: the buffer's owning thread and
// the variable the next flush writes (ok = false for an empty buffer,
// which cannot be scheduled but can linger as a stale sleep-set entry).
func flushParts(m Move) (owner tidset.Tid, v int64, ok bool) {
	owner = tidset.Tid(m.Info.Aux >> wm.AuxOwnerShift)
	hv := m.Info.Aux & (1<<wm.AuxOwnerShift - 1)
	return owner, hv - 1, hv != 0
}

// wmIndependent is the independence oracle for two wm moves on the
// same Memory (different threads). The TSO structure gives finer
// commutativity than plain shared variables: a buffered store touches
// only the issuing thread's private buffer, so it is invisible to — and
// independent of — everything except its own buffer's flushes, while a
// flush writes memory on the owner's behalf and so conflicts like a
// store by the owner would. Conservative: dependent when unsure.
func wmIndependent(a, b Move) bool {
	ka, kb := a.Info.Kind, b.Info.Kind
	// Drain observes every buffer: conservatively dependent with all
	// wm moves.
	if ka == "wm.drain" || kb == "wm.drain" {
		return false
	}
	if ka == "wm.flush" {
		return flushIndependent(a, b)
	}
	if kb == "wm.flush" {
		return flushIndependent(b, a)
	}
	switch {
	case ka == "wm.read" && kb == "wm.read":
		return true
	case ka == "wm.fence" || kb == "wm.fence":
		// A fence waits on its own buffer only; the moves that change
		// that buffer are the owner's stores (same tid, already
		// dependent) and its flushes (handled above).
		return true
	case ka == "wm.buf" || ka == "wm.buf1":
		// A buffered store is invisible outside its own buffer; the
		// other move is by a different thread (same-tid pairs never get
		// here) and is not this buffer's flush.
		return kb == "wm.buf" || kb == "wm.buf1" || kb == "wm.read" || kb == "wm.write"
	case kb == "wm.buf" || kb == "wm.buf1":
		return wmIndependent(b, a)
	case ka == "wm.write" && kb == "wm.write":
		return wmVar(a) != wmVar(b)
	case ka == "wm.write" || kb == "wm.write":
		// write vs read: conflict on the same variable.
		return wmVar(a) != wmVar(b)
	}
	return false
}

// flushIndependent reports whether flush move f commutes with wm move
// o (f is "wm.flush"; o is any wm move except drain).
func flushIndependent(f, o Move) bool {
	owner, v, ok := flushParts(f)
	if !ok {
		// Empty-buffer flush: stale, schedulable never; treat as
		// dependent so it wakes (and is dropped) promptly.
		return false
	}
	// The owner's own moves reorder buffer content, enable fences, and
	// race the head entry: dependent.
	if o.Tid == owner {
		return false
	}
	switch o.Info.Kind {
	case "wm.flush":
		oOwner, ov, oOK := flushParts(o)
		if !oOK {
			return false
		}
		// Two flushes of different buffers commute unless both write
		// the same variable next.
		return oOwner != owner && ov != v
	case "wm.read", "wm.write":
		// The flush writes v to memory: memory accesses to other
		// variables commute.
		return wmVar(o) != v
	case "wm.buf", "wm.buf1":
		// Another thread's buffered store touches only that thread's
		// private buffer.
		return true
	case "wm.fence":
		// A fence waits on its own buffer; this flush drains another's.
		return true
	}
	return false
}

// Independent reports whether the two moves commute: executing them in
// either order reaches a behaviorally identical state, and neither
// enables or disables the other.
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
	if a.Tid == b.Tid {
		return false
	}
	aAlloc := tidAlloc(a.Info.Kind)
	bAlloc := tidAlloc(b.Info.Kind)
	ta, la := lifecycleTarget(a)
	tb, lb := lifecycleTarget(b)
	// Any two id-allocating transitions (lifecycle ops and first TSO
	// stores) are mutually dependent: reordering them permutes thread
	// ids.
	if (la || aAlloc) && (lb || bAlloc) {
		return false
	}
	switch {
	case la:
		return b.Tid != ta
	case lb:
		return a.Tid != tb
	}
	if localOnly(a.Info.Kind) || localOnly(b.Info.Kind) {
		return true
	}
	if a.Info.Obj != b.Info.Obj {
		return true
	}
	// Same object: reads commute; array accesses to different
	// elements commute (Aux carries the element index); weak-memory
	// moves get the store/flush/load race semantics of wmIndependent.
	if readOnly(a.Info.Kind) && readOnly(b.Info.Kind) {
		return true
	}
	if isArrayOp(a.Info.Kind) && isArrayOp(b.Info.Kind) && a.Info.Aux != b.Info.Aux {
		return true
	}
	if isWM(a.Info.Kind) && isWM(b.Info.Kind) {
		return wmIndependent(a, b)
	}
	return false
}

func isArrayOp(kind string) bool {
	return kind == "arr.get" || kind == "arr.set"
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
	if k := chosen.Info.Kind; k == "yield" || k == "sleep" {
		s.Reset()
		return
	}
	out := s.moves[:0]
	for _, m := range s.moves {
		if Independent(m, chosen) {
			out = append(out, m)
		}
	}
	s.moves = out
}
