// Package syncmodel implements the model-level synchronization objects
// of the checker: mutexes, reader/writer locks, semaphores, condition
// variables, events, wait groups, bounded channels, and shared
// variables with interlocked operations.
//
// Every operation on these objects is a scheduling point: the calling
// model thread publishes an Op and parks until the checker grants the
// step (see internal/engine). Each object knows how to report whether
// a pending operation is enabled — that is where the checker's
// enabled(t) predicate comes from — and encodes its state canonically
// for fingerprinting.
//
// An object belongs to the execution that created it. Its constructor
// takes it from the engine's store for its type (engine.ObjSlab), so
// under an engine.Pool it is valid until the next Pool.Run, which
// recycles it: a program must not keep an object across executions.
//
// Operations with finite timeouts (AcquireTimeout, WaitTimeout, …) are
// yielding transitions, per the paper's yield-inference rule (§4):
// "every synchronization operation with a finite timeout and every
// explicit processor yield" signal that the thread cannot make
// progress.
package syncmodel

import (
	"encoding/binary"

	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

// base carries the identity shared by all model objects.
type base struct {
	id   engine.ObjID
	kind string
	name string
}

// ObjectInfo implements engine.Object.
func (b *base) ObjectInfo() (engine.ObjID, string, string) {
	return b.id, b.kind, b.name
}

// ID returns the object's engine id.
func (b *base) ID() engine.ObjID { return b.id }

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// appendTid appends t renamed by mapTid, a CanonicalObject's thread
// renaming; AppendState passes nil, which renames nothing.
func appendTid(buf []byte, t tidset.Tid, mapTid func(tidset.Tid) tidset.Tid) []byte {
	if mapTid != nil {
		t = mapTid(t)
	}
	return binary.AppendVarint(buf, int64(t))
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendTidSlice(buf []byte, ts []tidset.Tid, mapTid func(tidset.Tid) tidset.Tid) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = appendTid(buf, t, mapTid)
	}
	return buf
}
