package dist_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
)

// fig3 is the paper's Figure 3 spin-loop program (terminates under the
// fair scheduler; diverges under the unfair one).
func fig3(t *engine.T) {
	x := syncmodel.NewIntVar(t, "x", 0)
	hu := t.Go("u", func(t *engine.T) {
		for {
			t.Label(1)
			if x.Load(t) == 1 {
				break
			}
			t.Yield()
		}
	})
	ht := t.Go("t", func(t *engine.T) {
		x.Store(t, 1)
	})
	ht.Join(t)
	hu.Join(t)
}

// racyIncrement is a lost-update race; the assertion fails on schedules
// that preempt between a load and its store.
func racyIncrement(t *engine.T) {
	x := syncmodel.NewIntVar(t, "x", 0)
	wg := syncmodel.NewWaitGroup(t, "wg", 2)
	for i := 0; i < 2; i++ {
		t.Go("inc", func(t *engine.T) {
			v := x.Load(t)
			x.Store(t, v+1)
			wg.Done(t)
		})
	}
	wg.Wait(t)
	t.Assert(x.Load(t) == 2, "lost update")
}

var testProgs = map[string]func(*engine.T){
	"fig3": fig3,
	"racy": racyIncrement,
}

func lookup(name string) (func(*engine.T), bool) {
	p, ok := testProgs[name]
	return p, ok
}

// startCoordinator builds a coordinator for prog/opts and serves its
// handler on an httptest server.
func startCoordinator(t *testing.T, cfg dist.CoordinatorConfig) (*dist.Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := dist.NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv
}

// runWorkers runs n in-process workers against url and waits for all
// of them to exit.
func runWorkers(t *testing.T, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(dist.WorkerConfig{URL: url, Lookup: lookup})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// normalize strips wall-clock fields so reports compare by content.
func normalize(r *search.Report) *search.Report {
	c := *r
	c.Elapsed = 0
	return &c
}

// runReportBytes renders the deterministic run report — the
// distributed headline contract is byte-identity of this document.
func runReportBytes(t *testing.T, rep *search.Report, program string, opts search.Options) []byte {
	t.Helper()
	data, err := fairmc.ResultFromReport(rep).RunReport(program, opts).Encode()
	if err != nil {
		t.Fatalf("run report: %v", err)
	}
	return data
}

// TestDistMatchesLocal: a coordinator with two workers produces the
// same report — field for field, and byte for byte as a run report —
// as a local Parallelism=2 run, for both shard strategies.
func TestDistMatchesLocal(t *testing.T) {
	cases := []struct {
		name    string
		program string
		opts    search.Options
	}{
		{"prefix-clean", "fig3", search.Options{
			Fair: true, ContextBound: -1, MaxSteps: 10000,
		}},
		{"prefix-bug", "racy", search.Options{
			Fair: true, ContextBound: -1, MaxSteps: 10000,
			ContinueAfterViolation: true, ConfirmRuns: 2,
		}},
		{"stride", "racy", search.Options{
			Fair: true, RandomWalk: true, MaxExecutions: 400, MaxSteps: 1000,
			Seed: 3, ContinueAfterViolation: true, ConfirmRuns: 2,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := testProgs[tc.program]
			coord, srv := startCoordinator(t, dist.CoordinatorConfig{
				Prog:           prog,
				Program:        tc.program,
				Options:        tc.opts,
				RefParallelism: 2,
			})
			runWorkers(t, srv.URL, 2)
			got := coord.Wait()

			ref := tc.opts
			ref.Parallelism = 2
			want := search.Explore(prog, ref)
			if !reflect.DeepEqual(normalize(want), normalize(got)) {
				t.Fatalf("distributed report differs from local -p 2:\n%+v\nvs\n%+v", want, got)
			}
			if w, g := runReportBytes(t, want, tc.program, tc.opts), runReportBytes(t, got, tc.program, tc.opts); !bytes.Equal(w, g) {
				t.Fatalf("run report not byte-identical:\n%s\nvs\n%s", w, g)
			}
		})
	}
}

// postJSON is a minimal protocol client for fault injection.
func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// leaseWork asks for work as workerID, requires a grant, and returns
// the first one (the only one unless the plan is a DPOR wave).
func leaseWork(t *testing.T, url, workerID string) dist.Grant {
	t.Helper()
	return leaseBatch(t, url, workerID)[0]
}

// leaseBatch is leaseWork returning everything the call granted.
func leaseBatch(t *testing.T, url, workerID string) []dist.Grant {
	t.Helper()
	var lr dist.LeaseResponse
	postJSON(t, url+dist.PathLease, dist.LeaseRequest{WorkerID: workerID}, &lr)
	if lr.Status != dist.LeaseWork || len(lr.Grants) == 0 {
		t.Fatalf("lease status %q with %d grants, want %q", lr.Status, len(lr.Grants), dist.LeaseWork)
	}
	return lr.Grants
}

// oneResult is the result batch a worker posts for one finished shard.
func oneResult(workerID string, g dist.Grant, rep *search.Report) dist.ResultRequest {
	return dist.ResultRequest{WorkerID: workerID, Results: []dist.ShardResult{
		{LeaseID: g.LeaseID, Shard: g.Shard.Index, Report: rep},
	}}
}

// TestDistWorkerDeathRequeues: a worker leases a shard and goes silent
// (a crash, as the coordinator sees it). The lease expires, the shard
// requeues excluding the dead worker, a healthy worker finishes the
// search — and the report is still byte-identical to the local run,
// with the crash recorded as a structured WorkerFailure.
func TestDistWorkerDeathRequeues(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog:           fig3,
		Program:        "fig3",
		Options:        opts,
		RefParallelism: 2,
		LeaseTTL:       500 * time.Millisecond,
	})

	// The doomed worker: leases one shard, never speaks again.
	lr := leaseWork(t, srv.URL, "doomed")

	runWorkers(t, srv.URL, 1)
	got := coord.Wait()

	var found bool
	for _, wf := range got.WorkerFailures {
		if wf.Mode == "dist" && wf.Unit == int64(lr.Shard.Index) &&
			strings.Contains(wf.Panic, "lease expired") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lease-expiry WorkerFailure for shard %d: %+v", lr.Shard.Index, got.WorkerFailures)
	}
	if got.Skipped != 0 {
		t.Fatalf("shard was skipped, not requeued: %+v", got)
	}

	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical after worker death:\n%s\nvs\n%s", w, g)
	}
}

// TestDistUnknownProgram: a worker that does not have the coordinator's
// program refuses cleanly instead of running the wrong thing.
func TestDistUnknownProgram(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
	})
	err := dist.RunWorker(dist.WorkerConfig{
		URL:    srv.URL,
		Lookup: func(string) (func(*engine.T), bool) { return nil, false },
	})
	if err == nil || !strings.Contains(err.Error(), "does not have") {
		t.Fatalf("err = %v, want unknown-program refusal", err)
	}
	coord.Interrupt()
}
