// Package race is a happens-before race detector over the checker's
// event stream (an extension: CHESS shipped a companion data-race
// detector in the same spirit).
//
// In this model every shared access is a scheduling point, so
// executions are always serialized — there are no torn reads. What
// the detector flags is *missing synchronization*: two accesses to the
// same shared variable by different threads, at least one a write,
// with no happens-before path between them through locks, channels,
// events, semaphores, wait groups, or spawn/join edges. Such pairs are
// exactly the accesses that would be data races if the program were
// run on real hardware, even in interleavings where nothing misbehaves
// — so the detector finds the missing lock on executions that happen
// to pass.
//
// The implementation is a standard vector-clock detector: each thread
// carries a clock; every synchronization object carries the clock of
// its last releaser; shared variables remember a write clock-point and
// read clock-points per location.
package race

import (
	"fmt"
	"sort"

	"fairmc/internal/engine"
	"fairmc/internal/tidset"
)

// VC is a vector clock, indexed by thread id.
type VC []uint32

func (v *VC) extend(n int) {
	for len(*v) < n {
		*v = append(*v, 0)
	}
}

// joinWith merges o into v (pointwise max).
func (v *VC) joinWith(o VC) {
	v.extend(len(o))
	for i, x := range o {
		if x > (*v)[i] {
			(*v)[i] = x
		}
	}
}

// epoch is one access: the clock value of the accessing thread at the
// access.
type epoch struct {
	tid  tidset.Tid
	time uint32
	step int // step index, for reporting
}

// happenedBefore reports whether access e happens-before the thread
// whose clock is now.
func (e epoch) happenedBefore(now VC) bool {
	return int(e.tid) < len(now) && e.time <= now[int(e.tid)]
}

// location is a (variable, element) pair.
type location struct {
	obj  engine.ObjID
	elem int64
}

type varState struct {
	lastWrite *epoch
	reads     []epoch // reads since the last write, concurrent frontier
}

// Race is one detected unsynchronized access pair.
type Race struct {
	Obj        engine.ObjID
	ObjName    string
	Elem       int64
	FirstTid   tidset.Tid
	FirstStep  int
	SecondTid  tidset.Tid
	SecondStep int
	// WriteWrite is true for a write/write pair, false for read/write.
	WriteWrite bool
}

func (r Race) String() string {
	kind := "read/write"
	if r.WriteWrite {
		kind = "write/write"
	}
	loc := r.ObjName
	if r.Elem >= 0 {
		loc = fmt.Sprintf("%s[%d]", r.ObjName, r.Elem)
	}
	return fmt.Sprintf("%s race on %s: thread %d (step %d) vs thread %d (step %d)",
		kind, loc, r.FirstTid, r.FirstStep, r.SecondTid, r.SecondStep)
}

// Detector is an engine.Monitor that tracks happens-before and records
// races. One Detector observes one or more executions; races
// accumulate (deduplicated by location and thread pair).
type Detector struct {
	clocks   []VC
	syncObjs map[engine.ObjID]VC
	vars     map[location]*varState
	step     int

	races map[string]Race
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{races: map[string]Race{}}
}

// Races returns the accumulated races sorted by report string.
func (d *Detector) Races() []Race {
	out := make([]Race, 0, len(d.races))
	for _, r := range d.races {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// AfterInit implements engine.Monitor: reset per-execution state.
func (d *Detector) AfterInit(e *engine.Engine) {
	d.clocks = []VC{{1}}
	d.syncObjs = map[engine.ObjID]VC{}
	d.vars = map[location]*varState{}
	d.step = 0
}

func (d *Detector) clock(t tidset.Tid) *VC {
	for len(d.clocks) <= int(t) {
		d.clocks = append(d.clocks, nil)
	}
	c := &d.clocks[t]
	c.extend(int(t) + 1)
	return c
}

func (d *Detector) now(t tidset.Tid) uint32 {
	return (*d.clock(t))[int(t)]
}

// AfterStep implements engine.Monitor: interpret the last transition.
func (d *Detector) AfterStep(e *engine.Engine) {
	tid := e.LastScheduled()
	info := e.LastOpInfo()
	d.interpret(e, tid, info)
	d.step++
}

func (d *Detector) interpret(e *engine.Engine, tid tidset.Tid, info engine.OpInfo) {
	c := d.clock(tid)
	switch info.Kind {
	case "spawn":
		// Child inherits the parent's knowledge.
		child := tidset.Tid(info.Aux)
		cc := d.clock(child)
		cc.joinWith(*c)
		(*cc)[int(child)]++
		d.tick(tid)
	case "join":
		// Parent learns everything the child did.
		target := tidset.Tid(info.Aux)
		c.joinWith(*d.clock(target))
		d.tick(tid)
	case "lock", "wlock", "rlock", "sem.acquire", "event.wait", "wg.wait",
		"chan.recv", "cond.reacquire":
		// Acquire: join the object's release clock.
		if rel, ok := d.syncObjs[info.Obj]; ok {
			c.joinWith(rel)
		}
		d.tick(tid)
	case "unlock", "wunlock", "runlock", "sem.release", "event.set",
		"wg.add", "chan.send", "chan.close", "cond.signal", "cond.broadcast",
		"cond.wait":
		// Release: publish the thread's clock on the object.
		rel := d.syncObjs[info.Obj]
		rel.joinWith(*c)
		d.syncObjs[info.Obj] = rel
		d.tick(tid)
	case "trylock", "locktimeout", "sem.try", "sem.timeout", "event.timeout",
		"chan.trysend", "chan.tryrecv":
		// Conservative: treat successful try-ops as acquire+release.
		if rel, ok := d.syncObjs[info.Obj]; ok {
			c.joinWith(rel)
		}
		rel := d.syncObjs[info.Obj]
		rel.joinWith(*c)
		d.syncObjs[info.Obj] = rel
		d.tick(tid)
	case "load", "any.load":
		d.read(e, tid, location{obj: info.Obj, elem: -1})
	case "arr.get":
		d.read(e, tid, location{obj: info.Obj, elem: info.Aux})
	case "store", "any.store":
		d.write(e, tid, location{obj: info.Obj, elem: -1})
	case "arr.set":
		d.write(e, tid, location{obj: info.Obj, elem: info.Aux})
	case "add", "cas", "swap":
		// Interlocked read-modify-write: a write for conflict purposes,
		// and also a synchronization point in the release/acquire sense
		// (Interlocked* operations order memory on real hardware).
		if rel, ok := d.syncObjs[info.Obj]; ok {
			c.joinWith(rel)
		}
		d.write(e, tid, location{obj: info.Obj, elem: -1})
		rel := d.syncObjs[info.Obj]
		rel.joinWith(*c)
		d.syncObjs[info.Obj] = rel
	default:
		// yield, sleep, choose, start, …: no effect on happens-before.
		d.tick(tid)
	}
}

func (d *Detector) tick(t tidset.Tid) {
	(*d.clock(t))[int(t)]++
}

func (d *Detector) state(l location) *varState {
	s := d.vars[l]
	if s == nil {
		s = &varState{}
		d.vars[l] = s
	}
	return s
}

func (d *Detector) read(e *engine.Engine, tid tidset.Tid, l location) {
	s := d.state(l)
	c := d.clock(tid)
	if s.lastWrite != nil && s.lastWrite.tid != tid && !s.lastWrite.happenedBefore(*c) {
		d.report(e, l, *s.lastWrite, tid, false)
	}
	s.reads = append(s.reads, epoch{tid: tid, time: d.now(tid), step: d.step})
	d.tick(tid)
}

func (d *Detector) write(e *engine.Engine, tid tidset.Tid, l location) {
	s := d.state(l)
	c := d.clock(tid)
	if s.lastWrite != nil && s.lastWrite.tid != tid && !s.lastWrite.happenedBefore(*c) {
		d.report(e, l, *s.lastWrite, tid, true)
	}
	for _, r := range s.reads {
		if r.tid != tid && !r.happenedBefore(*c) {
			d.report(e, l, r, tid, false)
		}
	}
	s.lastWrite = &epoch{tid: tid, time: d.now(tid), step: d.step}
	s.reads = s.reads[:0]
	d.tick(tid)
}

func (d *Detector) report(e *engine.Engine, l location, prev epoch, tid tidset.Tid, ww bool) {
	name := fmt.Sprintf("#%d", l.obj)
	if int(l.obj) < len(e.Objects()) {
		_, _, n := e.Objects()[l.obj].ObjectInfo()
		name = n
	}
	r := Race{
		Obj: l.obj, ObjName: name, Elem: l.elem,
		FirstTid: prev.tid, FirstStep: prev.step,
		SecondTid: tid, SecondStep: d.step,
		WriteWrite: ww,
	}
	// Deduplicate by location and thread pair, keeping the first.
	key := fmt.Sprintf("%d/%d/%d/%d/%v", l.obj, l.elem, prev.tid, tid, ww)
	if _, ok := d.races[key]; !ok {
		d.races[key] = r
	}
}
