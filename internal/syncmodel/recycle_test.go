package syncmodel_test

import (
	"bytes"
	"testing"
	"time"

	"fairmc/internal/core"
	"fairmc/internal/engine"
	"fairmc/internal/syncmodel"
	"fairmc/internal/wm"
)

// objState is what a registered object shows the engine: its identity
// and its state encoding.
type objState struct {
	id         engine.ObjID
	kind, name string
	state      []byte
}

func snapshot(objs []engine.Object) []objState {
	out := make([]objState, len(objs))
	for i, o := range objs {
		id, kind, name := o.ObjectInfo()
		out[i] = objState{id, kind, name, o.AppendState(nil)}
	}
	return out
}

// highestTid runs the newest runnable thread (an agent included), so a
// spawned helper runs until it blocks before its parent goes on.
var highestTid = engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
	best := ctx.Cands[0]
	for _, a := range ctx.Cands {
		if a.Tid > best.Tid {
			best = a
		}
	}
	return best, true
})

// everyKind creates one object of every model kind, two mutexes and
// two channels, and hands the engine's object list to seen. With dirty
// set it then leaves every recycled field out of its initial state and
// ends the execution with a violation, so nothing unwinds that state:
// locks held, readers registered, cond waiters queued (one signaled),
// a channel closed with values buffered past a receive, a receiver
// parked on a rendezvous channel, the array written, a barrier party
// waiting, and a TSO store still buffered after an earlier one flushed.
func everyKind(dirty bool, seen func([]engine.Object)) func(*engine.T) {
	return func(t *engine.T) {
		mu := syncmodel.NewMutex(t, "mu")
		cm := syncmodel.NewMutex(t, "cm")
		rw := syncmodel.NewRWMutex(t, "rw")
		cond := syncmodel.NewCond(t, "cond", cm)
		ch := syncmodel.NewChannel(t, "ch", 2)
		rch := syncmodel.NewChannel(t, "rch", 0)
		arr := syncmodel.NewIntArray(t, "arr", 3)
		iv := syncmodel.NewIntVar(t, "iv", 5)
		av := syncmodel.NewAnyVar(t, "av", "x")
		ev := syncmodel.NewEvent(t, "ev", false, false)
		wg := syncmodel.NewWaitGroup(t, "wg", 1)
		sem := syncmodel.NewSemaphore(t, "sem", 1, 2)
		once := syncmodel.NewOnce(t, "once")
		bar := syncmodel.NewBarrier(t, "bar", 2)
		mem := wm.NewWithModel(t, "mem", 2, core.MemTSO, 0)
		seen(append([]engine.Object(nil), t.Engine().Objects()...))
		if !dirty {
			return
		}
		mu.Lock(t)
		rw.RLock(t)
		t.Go("reader", func(t *engine.T) { rw.RLock(t) })
		for i := 0; i < 2; i++ {
			t.Go("waiter", func(t *engine.T) {
				cm.Lock(t)
				cond.Wait(t)
			})
		}
		cm.Lock(t)
		cond.Signal(t)
		ch.Send(t, 1)
		ch.Send(t, 2)
		ch.Recv(t)
		ch.Send(t, 3)
		ch.Close(t)
		t.Go("receiver", func(t *engine.T) { rch.Recv(t) })
		t.Go("party", func(t *engine.T) { bar.Await(t) })
		for i := 0; i < arr.Len(); i++ {
			arr.Set(t, i, 4)
		}
		iv.Store(t, 8)
		av.Store(t, []int{1})
		ev.Set(t)
		wg.Add(t, 2)
		sem.Acquire(t)
		once.Begin(t)
		mem.Store(t, 1, 9)
		mem.Store(t, 0, 7) // the flush of the first store runs before it
		t.Failf("dirty")
	}
}

// TestRecycledObjectsStartFresh: a pooled engine hands the objects of
// one execution to the next (engine.ObjSlab), and the next must not see
// anything the first left in them. Execution 2 creates the objects
// execution 1 dirtied, and each shows the engine what it shows in a
// single-use engine.Run: the same identity, the same state bytes.
func TestRecycledObjectsStartFresh(t *testing.T) {
	cfg := engine.Config{MaxSteps: 10000}
	var want []objState
	wantTerminated(t, engine.Run(everyKind(false, func(objs []engine.Object) {
		want = snapshot(objs)
	}), highestTid, cfg))

	var pool engine.Pool
	defer pool.Close()
	var first []engine.Object
	wantViolation(t, pool.Run(everyKind(true, func(objs []engine.Object) { first = objs }), highestTid, cfg),
		"the dirtying run ends in its Failf")
	// The objects are the pool's until its next Run: the test can still
	// read what the execution left in them.
	for i, s := range snapshot(first) {
		if bytes.Equal(s.state, want[i].state) {
			t.Fatalf("%s: execution 1 left it in its initial state %x: the test shows nothing", s.name, s.state)
		}
	}

	var second []engine.Object
	var got []objState
	wantTerminated(t, pool.Run(everyKind(false, func(objs []engine.Object) {
		second, got = objs, snapshot(objs)
	}), highestTid, cfg))
	if len(got) != len(want) {
		t.Fatalf("execution 2 registered %d objects, a single-use run %d", len(got), len(want))
	}
	for i := range got {
		if second[i] != first[i] {
			t.Fatalf("%s: execution 2 got a new object, not execution 1's: the test shows nothing", got[i].name)
		}
		g, w := got[i], want[i]
		if g.id != w.id || g.kind != w.kind || g.name != w.name || !bytes.Equal(g.state, w.state) {
			t.Errorf("recycled object = %d %s %q state %x, single-use run %d %s %q state %x",
				g.id, g.kind, g.name, g.state, w.id, w.kind, w.name, w.state)
		}
	}
}

// TestWedgedEngineKeepsItsObjects: an engine that ends wedged is
// discarded by Pool.Run, its objects with it. Its abandoned thread may
// wake later and go on creating and using objects, but only its own
// engine's: the pool's next run builds on objects of its own, and the
// woken thread's writes race with nothing (go test -race).
func TestWedgedEngineKeepsItsObjects(t *testing.T) {
	block, late := make(chan struct{}), make(chan struct{})
	cfg := engine.Config{MaxSteps: 10000, Watchdog: 50 * time.Millisecond}
	var pool engine.Pool
	defer pool.Close()
	var wedged []engine.Object
	r := pool.Run(func(t *engine.T) {
		everyKind(false, func(objs []engine.Object) { wedged = objs })(t)
		t.Go("stuck", func(t *engine.T) {
			<-block // outside the model: the watchdog gives up on it
			v := syncmodel.NewIntVar(t, "late", 1)
			close(late)
			v.Store(t, 2) // its engine is aborting: the thread unwinds here
		})
		t.Yield()
	}, highestTid, cfg)
	if r.Outcome != engine.Wedged {
		t.Fatalf("outcome = %v, want wedged", r.Outcome)
	}

	run := func() []engine.Object {
		var objs []engine.Object
		wantTerminated(t, pool.Run(everyKind(false, func(o []engine.Object) { objs = o }), highestTid, engine.Config{MaxSteps: 10000}))
		return objs
	}
	next := run()
	for i, o := range next {
		for _, w := range wedged {
			if o == w {
				t.Fatalf("object %d of the run after a wedge is the wedged engine's", i)
			}
		}
	}
	close(block)
	<-late
	if again := run(); again[0] != next[0] {
		t.Fatal("the pool did not recycle its own engine's objects: the test shows nothing")
	}
}
