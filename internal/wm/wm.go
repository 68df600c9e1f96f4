// Package wm is the weak-memory subsystem: shared memory whose
// consistency model is a searched dimension of the checker rather than
// a property of the program.
//
// A Memory is a block of shared variables. Under sequential
// consistency (core.MemSC, the default) it behaves like a volatile
// array: every store is globally visible the moment it executes. Under
// total store order (core.MemTSO) each storing thread gets a private
// FIFO store buffer: stores enter the buffer, loads forward from the
// issuing thread's own buffer first (newest matching entry wins), and
// buffered stores reach memory only when the buffer's *flush agent* —
// a scheduler agent registered through engine.AddAgent — is granted a
// step by the search.
//
// Making the flush a schedulable transition is the point of the
// design: flush nondeterminism lands in the candidate set next to
// thread steps, so DFS/PCT/DPOR enumerate buffer/flush interleavings
// natively, conformance digests cover them, and the fair scheduler's
// priority relation P extends to flush delay. A spinning thread that
// yields (the good-samaritan signal) deprioritizes itself below a
// continuously enabled flush agent, so every fair execution flushes
// every buffer eventually — the checker explores exactly the
// memory-fair executions of "Making Weak Memory Models Fair" (Lahav et
// al.) and "Unified Fairness for Weak Memory Verification" (Abdulla et
// al.), and a divergence under -mm=tso is a genuine TSO liveness bug,
// not a starved buffer. See docs/WEAKMEMORY.md.
package wm

import (
	"encoding/binary"

	"fairmc/internal/core"
	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

// The calling thread's slots for the ops a Memory publishes (see
// engine.OpSlot).
var (
	loadSlot     = engine.NewOpSlot[loadOp]()
	scStoreSlot  = engine.NewOpSlot[scStoreOp]()
	tsoStoreSlot = engine.NewOpSlot[tsoStoreOp]()
	fenceSlot    = engine.NewOpSlot[fenceOp]()
	drainSlot    = engine.NewOpSlot[drainOp]()
)

// AuxOwnerShift is the bit position of the owner tid in a "wm.flush"
// OpInfo.Aux: Aux = owner<<AuxOwnerShift | (headVar+1), with headVar+1
// == 0 encoding an empty buffer. The low bits identify the variable
// the next flush writes, so a flush op's Info changes whenever the
// buffer head changes — sleep sets and digests key on it.
const AuxOwnerShift = 20

// MaxVars bounds the variable count of one Memory so a variable index
// always fits below AuxOwnerShift.
const MaxVars = 1<<AuxOwnerShift - 2

// Memory is a block of shared int64 variables governed by a memory
// model. Create one per program with New (model from the engine
// configuration) or NewWithModel (model forced by the caller, as the
// store-buffer tests do).
type Memory struct {
	id   engine.ObjID
	name string
	mod  core.MemModel
	cap  int // per-thread buffer capacity; 0 = unbounded
	mem  []int64
	bufs []*buffer // in creation order (deterministic encoding)
	e    *engine.Engine
}

// buffer is one thread's FIFO store buffer: ents[0] is the oldest
// entry, the one the next flush writes to memory. flush is its agent's
// pending op for the whole execution, so it lives with the buffer.
type buffer struct {
	owner tidset.Tid
	agent tidset.Tid
	ents  []entry
	flush flushOp
}

type entry struct {
	v   int
	val int64
}

// New creates a Memory of n variables, all zero, governed by the
// memory model the engine was configured with (Config.MemModel /
// Config.TSOBufCap — the -mm and -tso-buf surface).
func New(t *engine.T, name string, n int) *Memory {
	e := t.Engine()
	return NewWithModel(t, name, n, e.MemModel(), e.TSOBufCap())
}

// NewWithModel is New with the memory model and buffer capacity forced
// by the caller instead of read from the engine configuration.
func NewWithModel(t *engine.T, name string, n int, mod core.MemModel, cap int) *Memory {
	if n < 0 || n > MaxVars {
		t.Failf("wm %q: variable count %d out of range [0,%d]", name, n, MaxVars)
	}
	if cap < 0 {
		t.Failf("wm %q: negative buffer capacity %d", name, cap)
	}
	m := &Memory{name: name, mod: mod, cap: cap, mem: make([]int64, n), e: t.Engine()}
	m.id = t.Engine().RegisterObjectBy(t, m)
	return m
}

// ID returns the object's engine id.
func (m *Memory) ID() engine.ObjID { return m.id }

// ObjectInfo implements engine.Object.
func (m *Memory) ObjectInfo() (engine.ObjID, string, string) {
	return m.id, "wm", m.name
}

// AppendState implements engine.Object: memory content, then every
// store buffer (owner and FIFO entries) in creation order.
func (m *Memory) AppendState(buf []byte) []byte {
	return m.appendState(buf, nil)
}

// AppendStateMapped implements engine.CanonicalObject: buffer owners
// are thread ids and must be canonicalized.
func (m *Memory) AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	return m.appendState(buf, mapTid)
}

func (m *Memory) appendState(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.mem)))
	for _, v := range m.mem {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.bufs)))
	for _, b := range m.bufs {
		owner := b.owner
		if mapTid != nil {
			owner = mapTid(owner)
		}
		buf = binary.AppendVarint(buf, int64(owner))
		buf = binary.AppendUvarint(buf, uint64(len(b.ents)))
		for _, e := range b.ents {
			buf = binary.AppendVarint(buf, int64(e.v))
			buf = binary.AppendVarint(buf, e.val)
		}
	}
	return buf
}

// bufFor returns tid's store buffer, or nil. Linear scan: a program
// has a handful of storing threads, and creation order must stay the
// deterministic iteration order anyway.
func (m *Memory) bufFor(tid tidset.Tid) *buffer {
	for _, b := range m.bufs {
		if b.owner == tid {
			return b
		}
	}
	return nil
}

func (m *Memory) checkVar(t *engine.T, v int) {
	if v < 0 || v >= len(m.mem) {
		t.Failf("wm %q: variable %d out of range [0,%d)", m.name, v, len(m.mem))
	}
}

// Load reads variable v. Under TSO the load forwards from the calling
// thread's own store buffer when it holds an entry for v (the newest
// such entry — store-to-load forwarding); otherwise it reads memory.
func (m *Memory) Load(t *engine.T, v int) int64 {
	m.checkVar(t, v)
	return loadSlot.Do(t, loadOp{m: m, tid: t.ID(), v: v}).res
}

// Store writes variable v. Under SC the store hits memory directly;
// under TSO it enters the calling thread's store buffer (created — with
// its flush agent — on the thread's first store) and becomes globally
// visible only when a flush step drains it. With a bounded buffer
// (TSOBufCap > 0) a store into a full buffer blocks until a flush
// makes room — the storer-stall path of hardware TSO.
func (m *Memory) Store(t *engine.T, v int, x int64) {
	m.checkVar(t, v)
	if m.mod != core.MemTSO {
		scStoreSlot.Do(t, scStoreOp{m: m, v: v, x: x})
		return
	}
	tsoStoreSlot.Do(t, tsoStoreOp{m: m, tid: t.ID(), name: t.Name(), v: v, x: x})
}

// Fence drains the calling thread's store buffer: the fence transition
// is enabled only once the buffer is empty, so the thread blocks —
// without spinning — until the flush agent has drained every earlier
// store. It is a yielding transition (the good-samaritan hint): a
// fence is an explicit wait for the rest of the system, so it closes
// the thread's fairness window instead of looking like a busy loop to
// the livelock detector. Under SC it is a no-op scheduling point with
// the same yield semantics.
func (m *Memory) Fence(t *engine.T) {
	fenceSlot.Do(t, fenceOp{m: m, tid: t.ID()})
}

// Drain blocks until every thread's store buffer is empty, making all
// writes visible before a harness inspects memory; unlike Fence it
// waits for all buffers, not just the caller's.
func (m *Memory) Drain(t *engine.T) {
	drainSlot.Do(t, drainOp{m: m})
}

// Peek returns variable v's memory value without a scheduling point
// and without forwarding. Harness-side assertions only; buffered
// stores are invisible to it.
func (m *Memory) Peek(v int) int64 { return m.mem[v] }

// loadOp reads a variable, forwarding from the issuing thread's own
// buffer under TSO.
type loadOp struct {
	m   *Memory
	tid tidset.Tid
	v   int
	res int64
}

func (o *loadOp) Execute() engine.Op {
	m := o.m
	if m.mod == core.MemTSO {
		if b := m.bufFor(o.tid); b != nil {
			for i := len(b.ents) - 1; i >= 0; i-- {
				if b.ents[i].v == o.v {
					o.res = b.ents[i].val
					m.e.WM().Forwards++
					return nil
				}
			}
		}
	}
	o.res = m.mem[o.v]
	return nil
}
func (o *loadOp) Yielding() bool { return false }
func (o *loadOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wm.read", Obj: o.m.id, Aux: int64(o.v)}
}

// scStoreOp is a store under SC: straight to memory.
type scStoreOp struct {
	m *Memory
	v int
	x int64
}

func (o *scStoreOp) Execute() engine.Op {
	o.m.mem[o.v] = o.x
	return nil
}
func (o *scStoreOp) Yielding() bool { return false }
func (o *scStoreOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wm.write", Obj: o.m.id, Aux: int64(o.v)}
}

// tsoStoreOp is a store under TSO: append to the issuing thread's
// buffer. The thread's first store creates the buffer and registers
// its flush agent, which allocates a thread id — such stores report
// kind "wm.buf1" so the independence oracle treats them like the other
// tid-allocating (lifecycle) transitions. Firstness is computed at
// Info time and is deterministic: only the owning thread ever creates
// its buffer, and no step runs between a decision and its execution.
type tsoStoreOp struct {
	m    *Memory
	tid  tidset.Tid
	name string
	v    int
	x    int64
}

func (o *tsoStoreOp) Enabled() bool {
	if o.m.cap == 0 {
		return true
	}
	b := o.m.bufFor(o.tid)
	return b == nil || len(b.ents) < o.m.cap
}

func (o *tsoStoreOp) Execute() engine.Op {
	m := o.m
	b := m.bufFor(o.tid)
	if b == nil {
		b = &buffer{owner: o.tid}
		b.flush = flushOp{m: m, b: b}
		m.bufs = append(m.bufs, b)
		b.agent = m.e.AddAgent("flush:"+o.name, &b.flush)
	}
	b.ents = append(b.ents, entry{v: o.v, val: o.x})
	m.e.WM().BufferedStores++
	return nil
}
func (o *tsoStoreOp) Yielding() bool { return false }
func (o *tsoStoreOp) Info() engine.OpInfo {
	kind := "wm.buf"
	if o.m.bufFor(o.tid) == nil {
		kind = "wm.buf1"
	}
	return engine.OpInfo{Kind: kind, Obj: o.m.id, Aux: int64(o.v)}
}

// flushOp is a flush agent's persistent pending op: enabled while its
// buffer holds entries, each execution writes the oldest entry to
// memory. Aux encodes owner and head variable (see AuxOwnerShift) so
// the op's identity tracks the buffer state.
type flushOp struct {
	m *Memory
	b *buffer
}

func (o *flushOp) Enabled() bool { return len(o.b.ents) > 0 }
func (o *flushOp) Execute() engine.Op {
	head := o.b.ents[0]
	o.b.ents = o.b.ents[1:]
	if len(o.b.ents) == 0 {
		o.b.ents = nil
	}
	o.m.mem[head.v] = head.val
	o.m.e.WM().Flushes++
	return nil
}
func (o *flushOp) Yielding() bool { return false }
func (o *flushOp) Info() engine.OpInfo {
	aux := int64(o.b.owner) << AuxOwnerShift
	if len(o.b.ents) > 0 {
		aux |= int64(o.b.ents[0].v) + 1
	}
	return engine.OpInfo{Kind: "wm.flush", Obj: o.m.id, Aux: aux}
}

// fenceOp blocks until the issuing thread's buffer is empty. Yielding:
// a fence is a declared wait, so it closes the fairness window.
type fenceOp struct {
	m   *Memory
	tid tidset.Tid
}

func (o *fenceOp) Enabled() bool {
	if o.m.mod != core.MemTSO {
		return true
	}
	b := o.m.bufFor(o.tid)
	return b == nil || len(b.ents) == 0
}
func (o *fenceOp) Execute() engine.Op {
	o.m.e.WM().Fences++
	return nil
}
func (o *fenceOp) Yielding() bool { return true }
func (o *fenceOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wm.fence", Obj: o.m.id, Aux: int64(o.tid)}
}

// drainOp blocks until every buffer is empty (Memory.Drain).
type drainOp struct {
	m *Memory
}

func (o *drainOp) Enabled() bool {
	for _, b := range o.m.bufs {
		if len(b.ents) > 0 {
			return false
		}
	}
	return true
}
func (o *drainOp) Execute() engine.Op { return nil }
func (o *drainOp) Yielding() bool     { return true }
func (o *drainOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wm.drain", Obj: o.m.id}
}
