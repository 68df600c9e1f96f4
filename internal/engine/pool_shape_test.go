package engine_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/syncmodel"
)

// crowd is a program of n threads that needs the fair scheduler to end:
// every worker bumps a counter under a lock, makes a data choice, and
// then spins, yielding, on a flag main sets once it has seen them all.
func crowd(n int) func(*engine.T) {
	return func(t *engine.T) {
		mu := syncmodel.NewMutex(t, "mu")
		seen := syncmodel.NewIntVar(t, "seen", 0)
		done := syncmodel.NewIntVar(t, "done", 0)
		for i := 1; i < n; i++ {
			t.Go(fmt.Sprintf("w%d", i), func(t *engine.T) {
				mu.Lock(t)
				seen.Add(t, 1+int64(t.Choose(2)))
				mu.Unlock(t)
				for done.Load(t) == 0 {
					t.Yield()
				}
			})
		}
		for seen.Load(t) < int64(n-1) {
			t.Yield()
		}
		done.Store(t, 1)
	}
}

// TestPooledEngineAcrossShapes: a pooled engine is handed a 70-thread
// body, then a 3-thread one, and back, with the watchdog armed on every
// other pair of runs — rows of the fair scheduler's matrices re-strided
// and recycled, the section gate switching between its plain and its
// atomic form on the same engine — and every run must produce the
// schedule, trace and digests of a single-use engine.Run.
func TestPooledEngineAcrossShapes(t *testing.T) {
	var pool engine.Pool
	defer pool.Close()
	for i := 0; i < 8; i++ {
		n := []int{70, 3}[i%2]
		c := engine.Config{Fair: true, CheckInvariants: true, RecordTrace: true, RecordDigests: true, MaxSteps: 20000}
		if i/2%2 == 1 {
			c.Watchdog = 10 * time.Second
		}
		want := engine.Run(crowd(n), randomWalk(uint64(i)), c)
		got := pool.Run(crowd(n), randomWalk(uint64(i)), c)
		if want.Outcome != engine.Terminated || want.Threads != n {
			t.Fatalf("run %d: single-use run of %d threads ended %v with %d threads", i, n, want.Outcome, want.Threads)
		}
		if got.Outcome != want.Outcome || got.Steps != want.Steps ||
			got.EdgeAdds != want.EdgeAdds || got.EdgeErases != want.EdgeErases || got.FairBlocked != want.FairBlocked ||
			!reflect.DeepEqual(got.Schedule, want.Schedule) ||
			!reflect.DeepEqual(got.Trace, want.Trace) ||
			!reflect.DeepEqual(got.Digests, want.Digests) {
			t.Fatalf("run %d (%d threads, watchdog %v): pooled run differs from single-use\npooled: %v, %d steps, edges +%d −%d, blocked %d\nsingle: %v, %d steps, edges +%d −%d, blocked %d",
				i, n, c.Watchdog,
				got.Outcome, got.Steps, got.EdgeAdds, got.EdgeErases, got.FairBlocked,
				want.Outcome, want.Steps, want.EdgeAdds, want.EdgeErases, want.FairBlocked)
		}
		if n == 70 && want.EdgeAdds == 0 {
			t.Fatalf("run %d: 70 threads and no priority edge: the test exercises nothing", i)
		}
	}
}
