package syncmodel

import (
	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

var (
	lockSlot    = engine.NewOpSlot[lockOp]()
	tryLockSlot = engine.NewOpSlot[tryLockOp]()
	unlockSlot  = engine.NewOpSlot[unlockOp]()
	wLockSlot   = engine.NewOpSlot[wLockOp]()
	wUnlockSlot = engine.NewOpSlot[wUnlockOp]()
	rLockSlot   = engine.NewOpSlot[rLockOp]()
	rUnlockSlot = engine.NewOpSlot[rUnlockOp]()
	mutexSlab   = engine.NewObjSlab[Mutex]()
	rwMutexSlab = engine.NewObjSlab[RWMutex]()
)

// Mutex is a non-reentrant mutual-exclusion lock. A thread blocked in
// Lock is *disabled* until the lock is released (it does not spin), so
// lock waits never trip the fair scheduler: only explicit yields and
// finite timeouts do.
type Mutex struct {
	base
	owner tidset.Tid
}

// NewMutex creates and registers a mutex. Like all model objects it
// belongs to the current execution only: it is valid until the next
// Pool.Run, which recycles it.
func NewMutex(t *engine.T, name string) *Mutex {
	m, id := mutexSlab.New(t)
	*m = Mutex{base: base{id: id, kind: "mutex", name: name}, owner: tidset.None}
	return m
}

// Locked reports whether the mutex is currently held. Test-harness
// assertions may read this between scheduling points of the owning
// thread.
func (m *Mutex) Locked() bool { return m.owner != tidset.None }

// Owner returns the holder, or tidset.None.
func (m *Mutex) Owner() tidset.Tid { return m.owner }

// Lock acquires the mutex, blocking (disabled) while it is held.
// Relocking by the owner is a detected error.
func (m *Mutex) Lock(t *engine.T) {
	if m.owner == t.ID() {
		t.Failf("mutex %q: relock by owner thread %d", m.name, t.ID())
	}
	lockSlot.Do(t, lockOp{m: m, t: t})
}

// TryLock attempts to acquire the mutex without blocking and reports
// success. It is always enabled (it is the TryAcquire of the paper's
// Figure 1 dining-philosophers program).
func (m *Mutex) TryLock(t *engine.T) bool {
	return tryLockSlot.Do(t, tryLockOp{m: m, t: t}).ok
}

// LockTimeout attempts to acquire the mutex, giving up if it is held.
// Per the paper it models an acquire with a finite timeout and is
// therefore a *yielding* transition.
func (m *Mutex) LockTimeout(t *engine.T) bool {
	return tryLockSlot.Do(t, tryLockOp{m: m, t: t, timeout: true}).ok
}

// Unlock releases the mutex. Unlocking a mutex the caller does not
// hold is a detected error.
func (m *Mutex) Unlock(t *engine.T) {
	if m.owner != t.ID() {
		t.Failf("mutex %q: unlock by non-owner thread %d (owner %d)", m.name, t.ID(), m.owner)
	}
	unlockSlot.Do(t, unlockOp{m: m})
}

// AppendState implements engine.Object.
func (m *Mutex) AppendState(buf []byte) []byte { return m.AppendStateMapped(buf, nil) }

type lockOp struct {
	m *Mutex
	t *engine.T
}

func (o *lockOp) Enabled() bool { return o.m.owner == tidset.None }
func (o *lockOp) Execute() engine.Op {
	o.m.owner = o.t.ID()
	return nil
}
func (o *lockOp) Yielding() bool { return false }
func (o *lockOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "lock", Obj: o.m.id}
}

type tryLockOp struct {
	m       *Mutex
	t       *engine.T
	timeout bool
	ok      bool
}

func (o *tryLockOp) Execute() engine.Op {
	if o.m.owner == tidset.None {
		o.m.owner = o.t.ID()
		o.ok = true
	} else {
		o.ok = false
	}
	return nil
}
func (o *tryLockOp) Yielding() bool { return o.timeout }
func (o *tryLockOp) Info() engine.OpInfo {
	kind := "trylock"
	if o.timeout {
		kind = "locktimeout"
	}
	return engine.OpInfo{Kind: kind, Obj: o.m.id}
}

type unlockOp struct {
	m *Mutex
}

func (o *unlockOp) Execute() engine.Op {
	o.m.owner = tidset.None
	return nil
}
func (o *unlockOp) Yielding() bool { return false }
func (o *unlockOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "unlock", Obj: o.m.id}
}

// RWMutex is a reader/writer lock without writer preference: readers
// may enter whenever no writer holds the lock.
type RWMutex struct {
	base
	writer  tidset.Tid
	readers []tidset.Tid // in acquisition order
}

// NewRWMutex creates and registers a reader/writer lock.
func NewRWMutex(t *engine.T, name string) *RWMutex {
	m, id := rwMutexSlab.New(t)
	*m = RWMutex{base: base{id: id, kind: "rwmutex", name: name}, writer: tidset.None, readers: m.readers[:0]}
	return m
}

func (m *RWMutex) hasReader(t tidset.Tid) bool {
	for _, r := range m.readers {
		if r == t {
			return true
		}
	}
	return false
}

// Lock acquires the lock exclusively, blocking while any reader or
// writer holds it.
func (m *RWMutex) Lock(t *engine.T) {
	if m.writer == t.ID() {
		t.Failf("rwmutex %q: write relock by thread %d", m.name, t.ID())
	}
	if m.hasReader(t.ID()) {
		t.Failf("rwmutex %q: write lock while holding read lock, thread %d", m.name, t.ID())
	}
	wLockSlot.Do(t, wLockOp{m: m, t: t})
}

// Unlock releases the exclusive lock.
func (m *RWMutex) Unlock(t *engine.T) {
	if m.writer != t.ID() {
		t.Failf("rwmutex %q: unlock by non-writer thread %d", m.name, t.ID())
	}
	wUnlockSlot.Do(t, wUnlockOp{m: m})
}

// RLock acquires the lock shared, blocking while a writer holds it.
func (m *RWMutex) RLock(t *engine.T) {
	if m.hasReader(t.ID()) {
		t.Failf("rwmutex %q: read relock by thread %d", m.name, t.ID())
	}
	if m.writer == t.ID() {
		t.Failf("rwmutex %q: read lock while holding write lock, thread %d", m.name, t.ID())
	}
	rLockSlot.Do(t, rLockOp{m: m, t: t})
}

// RUnlock releases a shared hold.
func (m *RWMutex) RUnlock(t *engine.T) {
	if !m.hasReader(t.ID()) {
		t.Failf("rwmutex %q: read unlock without read lock, thread %d", m.name, t.ID())
	}
	rUnlockSlot.Do(t, rUnlockOp{m: m, t: t})
}

// AppendState implements engine.Object.
func (m *RWMutex) AppendState(buf []byte) []byte { return m.AppendStateMapped(buf, nil) }

type wLockOp struct {
	m *RWMutex
	t *engine.T
}

func (o *wLockOp) Enabled() bool {
	return o.m.writer == tidset.None && len(o.m.readers) == 0
}
func (o *wLockOp) Execute() engine.Op {
	o.m.writer = o.t.ID()
	return nil
}
func (o *wLockOp) Yielding() bool { return false }
func (o *wLockOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wlock", Obj: o.m.id}
}

type wUnlockOp struct{ m *RWMutex }

func (o *wUnlockOp) Execute() engine.Op {
	o.m.writer = tidset.None
	return nil
}
func (o *wUnlockOp) Yielding() bool { return false }
func (o *wUnlockOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wunlock", Obj: o.m.id}
}

type rLockOp struct {
	m *RWMutex
	t *engine.T
}

func (o *rLockOp) Enabled() bool { return o.m.writer == tidset.None }
func (o *rLockOp) Execute() engine.Op {
	o.m.readers = append(o.m.readers, o.t.ID())
	return nil
}
func (o *rLockOp) Yielding() bool { return false }
func (o *rLockOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "rlock", Obj: o.m.id}
}

type rUnlockOp struct {
	m *RWMutex
	t *engine.T
}

func (o *rUnlockOp) Execute() engine.Op {
	id := o.t.ID()
	for i, r := range o.m.readers {
		if r == id {
			o.m.readers = append(o.m.readers[:i], o.m.readers[i+1:]...)
			break
		}
	}
	return nil
}
func (o *rUnlockOp) Yielding() bool { return false }
func (o *rUnlockOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "runlock", Obj: o.m.id}
}

// AppendStateMapped implements engine.CanonicalObject.
func (m *Mutex) AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	return appendTid(buf, m.owner, mapTid)
}

// AppendStateMapped implements engine.CanonicalObject.
func (m *RWMutex) AppendStateMapped(buf []byte, mapTid func(tidset.Tid) tidset.Tid) []byte {
	return appendTidSlice(appendTid(buf, m.writer, mapTid), m.readers, mapTid)
}
