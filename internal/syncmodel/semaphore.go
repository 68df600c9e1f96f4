package syncmodel

import "fairmc/internal/engine"

var (
	semAcquireSlot = engine.NewOpSlot[semAcquireOp]()
	semTrySlot     = engine.NewOpSlot[semTryOp]()
	semReleaseSlot = engine.NewOpSlot[semReleaseOp]()
)

// Semaphore is a counting semaphore with an optional maximum count.
type Semaphore struct {
	base
	count int64
	max   int64 // 0 = unbounded
}

// NewSemaphore creates a semaphore with the given initial count.
// max = 0 means unbounded.
func NewSemaphore(t *engine.T, name string, initial, max int64) *Semaphore {
	if initial < 0 || (max > 0 && initial > max) {
		t.Failf("semaphore %q: bad initial count %d (max %d)", name, initial, max)
	}
	s := &Semaphore{base: base{kind: "sem", name: name}, count: initial, max: max}
	s.id = t.Engine().RegisterObjectBy(t, s)
	return s
}

// Count returns the current count.
func (s *Semaphore) Count() int64 { return s.count }

// Acquire decrements the count, blocking (disabled) while it is zero.
func (s *Semaphore) Acquire(t *engine.T) {
	semAcquireSlot.Do(t, semAcquireOp{s: s})
}

// TryAcquire attempts a non-blocking decrement and reports success.
func (s *Semaphore) TryAcquire(t *engine.T) bool {
	return semTrySlot.Do(t, semTryOp{s: s}).ok
}

// AcquireTimeout attempts a decrement with a finite timeout; it is a
// yielding transition per the paper's yield inference rule.
func (s *Semaphore) AcquireTimeout(t *engine.T) bool {
	return semTrySlot.Do(t, semTryOp{s: s, timeout: true}).ok
}

// Release increments the count by n, failing if the maximum would be
// exceeded.
func (s *Semaphore) Release(t *engine.T, n int64) {
	if n <= 0 {
		t.Failf("semaphore %q: Release(%d)", s.name, n)
	}
	if s.max > 0 && s.count+n > s.max {
		t.Failf("semaphore %q: release overflows max %d", s.name, s.max)
	}
	semReleaseSlot.Do(t, semReleaseOp{s: s, n: n})
}

// AppendState implements engine.Object.
func (s *Semaphore) AppendState(buf []byte) []byte {
	return appendVarint(buf, s.count)
}

type semAcquireOp struct{ s *Semaphore }

func (o *semAcquireOp) Enabled() bool { return o.s.count > 0 }
func (o *semAcquireOp) Execute() engine.Op {
	o.s.count--
	return nil
}
func (o *semAcquireOp) Yielding() bool { return false }
func (o *semAcquireOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "sem.acquire", Obj: o.s.id}
}

type semTryOp struct {
	s       *Semaphore
	timeout bool
	ok      bool
}

func (o *semTryOp) Execute() engine.Op {
	if o.s.count > 0 {
		o.s.count--
		o.ok = true
	} else {
		o.ok = false
	}
	return nil
}
func (o *semTryOp) Yielding() bool { return o.timeout }
func (o *semTryOp) Info() engine.OpInfo {
	kind := "sem.try"
	if o.timeout {
		kind = "sem.timeout"
	}
	return engine.OpInfo{Kind: kind, Obj: o.s.id}
}

type semReleaseOp struct {
	s *Semaphore
	n int64
}

func (o *semReleaseOp) Execute() engine.Op {
	o.s.count += o.n
	return nil
}
func (o *semReleaseOp) Yielding() bool { return false }
func (o *semReleaseOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "sem.release", Obj: o.s.id, Aux: o.n}
}
