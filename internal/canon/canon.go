// Package canon computes schedule-independent ("canonicalized") state
// fingerprints.
//
// The engine's raw fingerprints encode threads and objects in creation
// order, which is deterministic for a given schedule but may differ
// between schedules when several threads create threads or objects
// concurrently: the same logical state then hashes differently and
// coverage is overcounted. The paper faced the analogous problem with
// heap addresses and applied Iosif's heap canonicalization [14]; this
// package is the model-level equivalent:
//
//   - every thread gets a canonical name: its spawn path from the main
//     thread (main = ε, the k-th child of p = p.k), which is invariant
//     under scheduling;
//   - threads are encoded in spawn-path order and every embedded
//     thread id (lock owners, waiter queues, join targets) is remapped
//     to the canonical index;
//   - objects are keyed by (creator's canonical name, per-thread
//     creation sequence) — likewise schedule-invariant — and encoded
//     in that order, with object references remapped.
//
// Programs whose spawns and object creations all happen on the main
// thread (the coverage programs) hash identically raw or canonical;
// programs with symmetric concurrent creation need canon for exact
// state counting.
package canon

import (
	"encoding/binary"
	"sort"

	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

// Fingerprint returns the canonical fingerprint of the engine's
// current state.
func Fingerprint(e *engine.Engine) engine.Fingerprint {
	return engine.HashBytes(AppendStateBytes(e, nil))
}

// AppendStateBytes appends the canonical state encoding to buf.
func AppendStateBytes(e *engine.Engine, buf []byte) []byte {
	tidOrder, tidMap := threadOrder(e)
	mapTid := func(t tidset.Tid) tidset.Tid {
		if t < 0 || int(t) >= len(tidMap) {
			return t
		}
		return tidMap[t]
	}
	objOrder, objMap := objectOrder(e, tidMap)

	buf = binary.AppendUvarint(buf, uint64(len(tidOrder)))
	for _, t := range tidOrder {
		s := e.SnapshotThread(t)
		buf = append(buf, s.Status)
		if !s.Live {
			continue
		}
		buf = binary.AppendVarint(buf, int64(s.PC))
		buf = binary.AppendVarint(buf, int64(s.SinceLabel))
		buf = appendString(buf, s.Pending.Kind)
		obj := s.Pending.Obj
		if obj != engine.NoObj && int(obj) < len(objMap) {
			obj = objMap[obj]
		}
		buf = binary.AppendVarint(buf, int64(obj))
		aux := s.Pending.Aux
		if s.Pending.Kind == "join" || s.Pending.Kind == "spawn" {
			aux = int64(mapTid(tidset.Tid(aux)))
		}
		buf = binary.AppendVarint(buf, aux)
		if s.Enabled {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}

	objects := e.Objects()
	buf = binary.AppendUvarint(buf, uint64(len(objOrder)))
	for _, id := range objOrder {
		obj := objects[id]
		_, kind, name := obj.ObjectInfo()
		buf = appendString(buf, kind)
		buf = appendString(buf, name)
		if c, ok := obj.(engine.CanonicalObject); ok {
			buf = c.AppendStateMapped(buf, mapTid)
		} else {
			buf = obj.AppendState(buf)
		}
	}
	return buf
}

// threadOrder returns the thread ids sorted by canonical spawn path,
// plus the raw-to-canonical index map.
func threadOrder(e *engine.Engine) (order []tidset.Tid, tidMap []tidset.Tid) {
	n := e.NumThreads()
	paths := make([][]int, n)
	for i := 0; i < n; i++ {
		paths[i] = spawnPath(e, tidset.Tid(i))
	}
	order = make([]tidset.Tid, n)
	for i := range order {
		order[i] = tidset.Tid(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return lessPath(paths[order[a]], paths[order[b]])
	})
	tidMap = make([]tidset.Tid, n)
	for canonIdx, raw := range order {
		tidMap[raw] = tidset.Tid(canonIdx)
	}
	return order, tidMap
}

// spawnPath returns the spawn-sequence path from the main thread.
func spawnPath(e *engine.Engine, t tidset.Tid) []int {
	var rev []int
	for t != tidset.None {
		parent, seq := e.ThreadMeta(t)
		if parent == tidset.None {
			break // main thread: empty path element
		}
		rev = append(rev, seq)
		t = parent
	}
	// Reverse into root-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// objectOrder returns object ids sorted by (creator canonical path,
// creation seq), plus the raw-to-canonical ObjID map.
func objectOrder(e *engine.Engine, tidMap []tidset.Tid) (order []engine.ObjID, objMap []engine.ObjID) {
	objects := e.Objects()
	order = make([]engine.ObjID, len(objects))
	for i := range order {
		order[i] = engine.ObjID(i)
	}
	key := func(id engine.ObjID) (int, int) {
		m := e.ObjectMeta(id)
		return int(tidMap[m.Creator]), m.Seq
	}
	sort.Slice(order, func(a, b int) bool {
		a1, a2 := key(order[a])
		b1, b2 := key(order[b])
		if a1 != b1 {
			return a1 < b1
		}
		return a2 < b2
	})
	objMap = make([]engine.ObjID, len(objects))
	for canonIdx, raw := range order {
		objMap[raw] = engine.ObjID(canonIdx)
	}
	return order, objMap
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Coverage is a state-coverage monitor (like state.Coverage) that
// counts canonical fingerprints.
type Coverage struct {
	seen map[engine.Fingerprint]struct{}
}

// NewCoverage returns an empty canonical coverage tracker.
func NewCoverage() *Coverage {
	return &Coverage{seen: make(map[engine.Fingerprint]struct{})}
}

// AfterInit implements engine.Monitor.
func (c *Coverage) AfterInit(e *engine.Engine) { c.seen[Fingerprint(e)] = struct{}{} }

// AfterStep implements engine.Monitor.
func (c *Coverage) AfterStep(e *engine.Engine) { c.seen[Fingerprint(e)] = struct{}{} }

// Count returns the number of distinct canonical states seen.
func (c *Coverage) Count() int { return len(c.seen) }
