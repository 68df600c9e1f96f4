package syncmodel

import "fairmc/internal/engine"

var (
	wgAddSlot  = engine.NewOpSlot[wgAddOp]()
	wgWaitSlot = engine.NewOpSlot[wgWaitOp]()
)

// WaitGroup counts outstanding work, like sync.WaitGroup.
type WaitGroup struct {
	base
	count int64
}

// NewWaitGroup creates a wait group with the given initial count.
func NewWaitGroup(t *engine.T, name string, initial int64) *WaitGroup {
	if initial < 0 {
		t.Failf("waitgroup %q: negative initial count %d", name, initial)
	}
	w := &WaitGroup{base: base{kind: "wg", name: name}, count: initial}
	w.id = t.Engine().RegisterObjectBy(t, w)
	return w
}

// Count returns the current counter value.
func (w *WaitGroup) Count() int64 { return w.count }

// Add adds delta (which may be negative) to the counter; driving the
// counter negative is a detected error.
func (w *WaitGroup) Add(t *engine.T, delta int64) {
	wgAddSlot.Do(t, wgAddOp{w: w, t: t, delta: delta})
}

// Done decrements the counter by one.
func (w *WaitGroup) Done(t *engine.T) { w.Add(t, -1) }

// Wait blocks (disabled) until the counter reaches zero.
func (w *WaitGroup) Wait(t *engine.T) {
	wgWaitSlot.Do(t, wgWaitOp{w: w})
}

// AppendState implements engine.Object.
func (w *WaitGroup) AppendState(buf []byte) []byte {
	return appendVarint(buf, w.count)
}

type wgAddOp struct {
	w     *WaitGroup
	t     *engine.T
	delta int64
}

func (o *wgAddOp) Execute() engine.Op {
	o.w.count += o.delta
	if o.w.count < 0 {
		o.t.Failf("waitgroup %q: negative counter %d", o.w.name, o.w.count)
	}
	return nil
}
func (o *wgAddOp) Yielding() bool { return false }
func (o *wgAddOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wg.add", Obj: o.w.id, Aux: o.delta}
}

type wgWaitOp struct{ w *WaitGroup }

func (o *wgWaitOp) Enabled() bool { return o.w.count == 0 }
func (o *wgWaitOp) Execute() engine.Op {
	return nil
}
func (o *wgWaitOp) Yielding() bool { return false }
func (o *wgWaitOp) Info() engine.OpInfo {
	return engine.OpInfo{Kind: "wg.wait", Obj: o.w.id}
}
