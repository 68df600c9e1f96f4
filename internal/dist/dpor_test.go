package dist_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairmc/internal/dist/jobs"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// dporOpts is the DPOR configuration shared by the distributed DPOR
// tests: an unfair full-depth DFS (DPOR's precondition) over the racy
// increment, counting every violation so the merged counters carry
// real weight.
var dporOpts = search.Options{
	Fair:                   false,
	ContextBound:           -1,
	MaxSteps:               10000,
	DPOR:                   true,
	ContinueAfterViolation: true,
}

// TestDistDPORMatchesSequential: DPOR's work-unit plan grows as units
// merge, with the coordinator extending its lease state to match and
// handing the growing frontier out a wave at a time. However many
// workers drain it — one taking every wave, or three racing for them —
// they must reproduce the sequential DPOR report field for field, and
// byte for byte as a run report: merge order is plan order regardless
// of who ran what.
func TestDistDPORMatchesSequential(t *testing.T) {
	localOpts := dporOpts
	localOpts.Metrics = obs.NewMetrics()
	want := search.Explore(racyIncrement, localOpts)
	if want.Violations == 0 {
		t.Fatal("fixture found no violations; test configuration is too weak")
	}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			distMetrics := obs.NewMetrics()
			got := startJob(t, jobs.Config{Metrics: distMetrics}, "racy", dporOpts).finish(t, workers)

			// Pruned reversals are counted by the merge, which runs on the
			// coordinator: its registry must see what a local run's does.
			if l, d := localOpts.Metrics.Snapshot().DporUnitsPruned, distMetrics.Snapshot().DporUnitsPruned; l == 0 || l != d {
				t.Fatalf("dporUnitsPruned: local %d, distributed %d; want equal and nonzero", l, d)
			}
			if !reflect.DeepEqual(normalize(want), normalize(got)) {
				t.Fatalf("distributed DPOR report differs from sequential:\n%+v\nvs\n%+v", want, got)
			}
			if w, g := runReportBytes(t, want, "racy", dporOpts), runReportBytes(t, got, "racy", dporOpts); !bytes.Equal(w, g) {
				t.Fatalf("run report not byte-identical:\n%s\nvs\n%s", w, g)
			}
		})
	}
}

// TestDistDPORWorkerDeath: a worker leases a DPOR unit and goes
// silent. The lease expires, the unit requeues, a healthy worker
// finishes the search — and the report is still byte-identical to the
// sequential DPOR run, with the crash recorded as a WorkerFailure.
func TestDistDPORWorkerDeath(t *testing.T) {
	s := startJob(t, jobs.Config{LeaseTTL: 500 * time.Millisecond}, "racy", dporOpts)

	// The doomed worker: leases one unit, never speaks again.
	lr := s.leaseWork(t, "doomed")
	if lr.Shard.Unit == nil {
		t.Fatalf("leased shard %d carries no DPOR unit: %+v", lr.Shard.Index, lr.Shard)
	}

	got := s.finish(t, 1)

	var found bool
	for _, wf := range got.WorkerFailures {
		if wf.Mode == "dist" && wf.Unit == int64(lr.Shard.Index) &&
			strings.Contains(wf.Panic, "lease expired") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lease-expiry WorkerFailure for unit %d: %+v", lr.Shard.Index, got.WorkerFailures)
	}

	want := search.Explore(racyIncrement, dporOpts)
	if w, g := runReportBytes(t, want, "racy", dporOpts), runReportBytes(t, got, "racy", dporOpts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical after worker death:\n%s\nvs\n%s", w, g)
	}
}
