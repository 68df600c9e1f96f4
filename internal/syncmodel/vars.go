package syncmodel

import (
	"fmt"

	"fairmc/internal/engine"
)

// Every operation in this package publishes its op from the calling
// thread's slot for the op's type (engine.OpSlot) and reads the result
// back out of it: a step allocates no op.
var (
	loadSlot     = engine.NewOpSlot[loadOp]()
	storeSlot    = engine.NewOpSlot[storeOp]()
	addSlot      = engine.NewOpSlot[addOp]()
	casSlot      = engine.NewOpSlot[casOp]()
	swapSlot     = engine.NewOpSlot[swapOp]()
	arrGetSlot   = engine.NewOpSlot[arrGetOp]()
	arrSetSlot   = engine.NewOpSlot[arrSetOp]()
	anyLoadSlot  = engine.NewOpSlot[anyLoadOp]()
	anyStoreSlot = engine.NewOpSlot[anyStoreOp]()
)

// IntVar is a shared integer variable. Every access is a scheduling
// point, giving the variable "volatile" (sequentially consistent)
// semantics: the checker explores all interleavings of accesses. The
// read-modify-write operations model the Interlocked* primitives the
// paper's work-stealing queue and Promise programs rely on.
type IntVar struct {
	base
	v int64
}

// NewIntVar creates a shared integer variable with the given initial
// value.
func NewIntVar(t *engine.T, name string, initial int64) *IntVar {
	v := &IntVar{base: base{kind: "int", name: name}, v: initial}
	v.id = t.Engine().RegisterObjectBy(t, v)
	return v
}

// Peek returns the current value without a scheduling point. It is
// intended for harness-side assertions between steps of the calling
// thread, not for modeling program reads.
func (v *IntVar) Peek() int64 { return v.v }

// Load reads the variable (InterlockedRead).
func (v *IntVar) Load(t *engine.T) int64 {
	return loadSlot.Do(t, loadOp{v: v}).res
}

// Store writes the variable.
func (v *IntVar) Store(t *engine.T, x int64) {
	storeSlot.Do(t, storeOp{v: v, x: x})
}

// Add atomically adds delta and returns the new value
// (InterlockedAdd).
func (v *IntVar) Add(t *engine.T, delta int64) int64 {
	return addSlot.Do(t, addOp{v: v, delta: delta}).res
}

// CompareAndSwap atomically replaces old with new and reports success
// (InterlockedCompareExchange).
func (v *IntVar) CompareAndSwap(t *engine.T, old, new int64) bool {
	return casSlot.Do(t, casOp{v: v, old: old, new: new}).ok
}

// Swap atomically stores x and returns the previous value
// (InterlockedExchange).
func (v *IntVar) Swap(t *engine.T, x int64) int64 {
	return swapSlot.Do(t, swapOp{v: v, x: x}).res
}

// AppendState implements engine.Object.
func (v *IntVar) AppendState(buf []byte) []byte {
	return appendVarint(buf, v.v)
}

type loadOp struct {
	v   *IntVar
	res int64
}

func (o *loadOp) Execute() engine.Op {
	o.res = o.v.v
	return nil
}
func (o *loadOp) Yielding() bool { return false }
func (o *loadOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "load", Obj: o.v.id}
}

type storeOp struct {
	v *IntVar
	x int64
}

func (o *storeOp) Execute() engine.Op {
	o.v.v = o.x
	return nil
}
func (o *storeOp) Yielding() bool { return false }
func (o *storeOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "store", Obj: o.v.id, Aux: o.x}
}

type addOp struct {
	v     *IntVar
	delta int64
	res   int64
}

func (o *addOp) Execute() engine.Op {
	o.v.v += o.delta
	o.res = o.v.v
	return nil
}
func (o *addOp) Yielding() bool { return false }
func (o *addOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "add", Obj: o.v.id, Aux: o.delta}
}

type casOp struct {
	v        *IntVar
	old, new int64
	ok       bool
}

func (o *casOp) Execute() engine.Op {
	if o.v.v == o.old {
		o.v.v = o.new
		o.ok = true
	} else {
		o.ok = false
	}
	return nil
}
func (o *casOp) Yielding() bool { return false }
func (o *casOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "cas", Obj: o.v.id, Aux: o.new}
}

type swapOp struct {
	v   *IntVar
	x   int64
	res int64
}

func (o *swapOp) Execute() engine.Op {
	o.res = o.v.v
	o.v.v = o.x
	return nil
}
func (o *swapOp) Yielding() bool { return false }
func (o *swapOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "swap", Obj: o.v.id, Aux: o.x}
}

// IntArray is a fixed-size shared array of integers; element accesses
// are scheduling points. The work-stealing queue stores its tasks in
// one.
type IntArray struct {
	base
	elems []int64
}

// NewIntArray creates a zero-initialized shared array of length n.
func NewIntArray(t *engine.T, name string, n int) *IntArray {
	if n < 0 {
		t.Failf("intarray %q: negative length %d", name, n)
	}
	a := &IntArray{base: base{kind: "array", name: name}, elems: make([]int64, n)}
	a.id = t.Engine().RegisterObjectBy(t, a)
	return a
}

// Len returns the array length (immutable, no scheduling point).
func (a *IntArray) Len() int { return len(a.elems) }

// Get reads element i.
func (a *IntArray) Get(t *engine.T, i int) int64 {
	if i < 0 || i >= len(a.elems) {
		t.Failf("intarray %q: index %d out of range [0,%d)", a.name, i, len(a.elems))
	}
	return arrGetSlot.Do(t, arrGetOp{a: a, i: i}).res
}

// Set writes element i.
func (a *IntArray) Set(t *engine.T, i int, x int64) {
	if i < 0 || i >= len(a.elems) {
		t.Failf("intarray %q: index %d out of range [0,%d)", a.name, i, len(a.elems))
	}
	arrSetSlot.Do(t, arrSetOp{a: a, i: i, x: x})
}

// AppendState implements engine.Object.
func (a *IntArray) AppendState(buf []byte) []byte {
	buf = appendVarint(buf, int64(len(a.elems)))
	for _, e := range a.elems {
		buf = appendVarint(buf, e)
	}
	return buf
}

type arrGetOp struct {
	a   *IntArray
	i   int
	res int64
}

func (o *arrGetOp) Execute() engine.Op {
	o.res = o.a.elems[o.i]
	return nil
}
func (o *arrGetOp) Yielding() bool { return false }
func (o *arrGetOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "arr.get", Obj: o.a.id, Aux: int64(o.i)}
}

type arrSetOp struct {
	a *IntArray
	i int
	x int64
}

func (o *arrSetOp) Execute() engine.Op {
	o.a.elems[o.i] = o.x
	return nil
}
func (o *arrSetOp) Yielding() bool { return false }
func (o *arrSetOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "arr.set", Obj: o.a.id, Aux: int64(o.i)}
}

// AnyVar is a shared variable holding an arbitrary value. Its
// fingerprint encoding uses the value's %#v rendering, so values
// stored in fingerprinted programs must render deterministically
// (numbers, strings, booleans, structs of those; fmt sorts map keys).
type AnyVar struct {
	base
	v any
}

// NewAnyVar creates a shared variable holding initial.
func NewAnyVar(t *engine.T, name string, initial any) *AnyVar {
	v := &AnyVar{base: base{kind: "any", name: name}, v: initial}
	v.id = t.Engine().RegisterObjectBy(t, v)
	return v
}

// Load reads the variable.
func (v *AnyVar) Load(t *engine.T) any {
	return anyLoadSlot.Do(t, anyLoadOp{v: v}).res
}

// Store writes the variable.
func (v *AnyVar) Store(t *engine.T, x any) {
	anyStoreSlot.Do(t, anyStoreOp{v: v, x: x})
}

// Peek returns the current value without a scheduling point (harness
// assertions only).
func (v *AnyVar) Peek() any { return v.v }

// AppendState implements engine.Object.
func (v *AnyVar) AppendState(buf []byte) []byte {
	s := fmt.Sprintf("%#v", v.v)
	buf = appendVarint(buf, int64(len(s)))
	return append(buf, s...)
}

type anyLoadOp struct {
	v   *AnyVar
	res any
}

func (o *anyLoadOp) Execute() engine.Op {
	o.res = o.v.v
	return nil
}
func (o *anyLoadOp) Yielding() bool { return false }
func (o *anyLoadOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "any.load", Obj: o.v.id}
}

type anyStoreOp struct {
	v *AnyVar
	x any
}

func (o *anyStoreOp) Execute() engine.Op {
	o.v.v = o.x
	return nil
}
func (o *anyStoreOp) Yielding() bool { return false }
func (o *anyStoreOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "any.store", Obj: o.v.id}
}
