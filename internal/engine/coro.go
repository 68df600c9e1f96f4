//go:build go1.23

// The build constraint is what lets this one file use package iter
// while go.mod says go 1.22 (bench/go.mod, which replaces this module
// in, pins that line): it raises the file's language version.

package engine

import "iter"

// newWorker makes a worker: a coroutine (iter.Pull over the runtime's
// coroswitch) whose loop is "run the body it was given, switch back".
func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			e.runThread(w.th)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}
