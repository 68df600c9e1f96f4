package engine

// worker is a coroutine for running thread bodies (newWorker). The hub
// switches to it with next; it runs th's body and switches back with
// yield — mid-body, whenever the thread hands the hub a section
// (yieldToHub), and once more when the body has finished, after which
// it idles in that yield until the hub gives it the next body. Workers
// outlive executions: a coroutine starts on a small stack and the fast
// path's sections run the whole scheduler on it, so a fresh one pays
// stack growth before it reaches steady state, and making one costs a
// dozen allocations. Pooled engines keep their idle workers from run to
// run; a single-use engine reuses them within its run and retires them
// when Run returns.
type worker struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func() // retires an idle worker: its yield returns false
	th    *thread
	// dead marks a worker whose body called runtime.Goexit: it is parked
	// for good (runThread) and must never be resumed, reused or stopped.
	dead bool
}

// startThread gives an embryo thread a worker to run its body on — an
// idle one if there is one. The body starts at the next switch to it.
func (e *Engine) startThread(th *thread) {
	var w *worker
	if n := len(e.idleWorkers); n > 0 {
		w = e.idleWorkers[n-1]
		e.idleWorkers[n-1] = nil
		e.idleWorkers = e.idleWorkers[:n-1]
	} else {
		w = e.newWorker()
	}
	w.th = th
	th.w = w
}

// recycleWorker detaches th's worker and returns it to the idle list.
// Called once th's body has finished and switched back; must not be
// called for a wedged thread (its worker is stuck in user code and is
// leaked with it).
func (e *Engine) recycleWorker(th *thread) {
	if w := th.w; w != nil && !w.dead {
		e.idleWorkers = append(e.idleWorkers, w)
	}
	th.w = nil
}

// releaseWorkers retires every idle worker. A wedged engine's stuck
// worker is not idle and stays leaked.
func (e *Engine) releaseWorkers() {
	for i, w := range e.idleWorkers {
		w.stop()
		e.idleWorkers[i] = nil
	}
	e.idleWorkers = e.idleWorkers[:0]
}
