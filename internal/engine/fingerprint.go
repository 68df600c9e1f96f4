package engine

import (
	"encoding/binary"

	"fairmc/internal/tidset"
)

// Fingerprint is a 128-bit state signature: two independent 64-bit
// FNV-1a hashes over the canonical state encoding. The paper's CHESS
// stores such signatures in a hash table to measure state coverage
// (§4.2.1); 128 bits make accidental collisions negligible for the
// state-space sizes involved.
type Fingerprint struct {
	Hi, Lo uint64
}

// Fingerprint captures the current program state: for every thread its
// status, program label and pending operation, and for every
// registered object its canonical state encoding.
//
// This is the model-checking analogue of the paper's manually added
// state-extraction facility: it is sound for programs that keep all
// behaviour-relevant state in registered objects and thread labels
// (the discipline the coverage programs follow). Objects and threads
// are encoded in creation order, which is deterministic for a given
// schedule; programs whose logical object identity varies across
// schedules should route fingerprints through internal/canon first.
func (e *Engine) Fingerprint() Fingerprint {
	e.fpBuf = e.AppendStateBytes(e.fpBuf[:0])
	return HashBytes(e.fpBuf)
}

// AppendStateBytes appends the canonical encoding of the current state
// to buf and returns the extended slice.
func (e *Engine) AppendStateBytes(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(e.threads)))
	for _, th := range e.threads {
		buf = append(buf, byte(th.status))
		if th.status == statusExited {
			// An exited thread has no future; its final program point
			// is irrelevant to the state.
			continue
		}
		buf = binary.AppendVarint(buf, int64(th.pc))
		buf = binary.AppendVarint(buf, int64(th.sinceLabel))
		info := th.pending.Info()
		buf = appendString(buf, info.Kind)
		buf = binary.AppendVarint(buf, int64(info.Obj))
		buf = binary.AppendVarint(buf, info.Aux)
		if th.enabled() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.objects)))
	for _, obj := range e.objects {
		_, kind, name := obj.ObjectInfo()
		buf = appendString(buf, kind)
		buf = appendString(buf, name)
		buf = obj.AppendState(buf)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ThreadSnapshot exposes one thread's fingerprint-relevant state to
// canonical encoders (internal/canon).
type ThreadSnapshot struct {
	Status     byte
	PC         int
	SinceLabel int
	Live       bool
	Pending    OpInfo // valid when Live
	Enabled    bool   // valid when Live
}

// SnapshotThread returns the fingerprint-relevant state of thread t.
func (e *Engine) SnapshotThread(t tidset.Tid) ThreadSnapshot {
	th := e.threads[t]
	s := ThreadSnapshot{
		Status:     byte(th.status),
		PC:         th.pc,
		SinceLabel: th.sinceLabel,
		Live:       th.status != statusExited,
	}
	if s.Live {
		s.Pending = th.pending.Info()
		s.Enabled = th.enabled()
	}
	return s
}

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so both
// halves of the fingerprint fall out of one pass with no hash-state
// allocations).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// loSeedState is the FNV-1a state after absorbing the 4-byte domain
// separator {0x9e, 0x37, 0x79, 0xb9}. Starting Lo's accumulator here
// yields exactly the hash of (separator ++ buf) without a second pass
// over the buffer.
var loSeedState = func() uint64 {
	h := fnvOffset64
	for _, b := range [...]byte{0x9e, 0x37, 0x79, 0xb9} {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}()

// HashBytes hashes a canonical encoding the same way Fingerprint does,
// so canonical and raw fingerprints are comparable artifacts. Both
// 64-bit halves are computed in a single pass: Hi is plain FNV-1a over
// buf, Lo is FNV-1a over buf from a seeded initial state.
func HashBytes(buf []byte) Fingerprint {
	h1, h2 := fnvOffset64, loSeedState
	for _, b := range buf {
		h1 = (h1 ^ uint64(b)) * fnvPrime64
		h2 = (h2 ^ uint64(b)) * fnvPrime64
	}
	return Fingerprint{Hi: h1, Lo: h2}
}

// CanonicalObject is implemented by objects whose state encoding
// embeds thread identifiers. AppendStateMapped must produce the same
// encoding as AppendState except that every embedded thread id is
// first passed through mapTid; canonical fingerprints depend on it.
type CanonicalObject interface {
	Object
	AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte
}
