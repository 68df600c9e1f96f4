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
	"fairmc/internal/dist/jobs"
	"fairmc/internal/engine"
	"fairmc/internal/por"
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

// named is opts for the test program registered as name.
func named(name string, opts search.Options) search.Options {
	opts.ProgramName = name
	return opts
}

// service is a jobs service whose one job is the search under test.
type service struct {
	*jobs.Server
	url string // what workers lease from
	id  string // the job ...
	job string // ... and the URL its heartbeats, results and events go to
}

// startJob serves program under opts, mirroring local -p 2, as the one
// job of a jobs service on cfg (Dir defaults to a new ledger; over one
// that records a job, it is that job, resumed) and returns once the job
// is mounted.
func startJob(t *testing.T, cfg jobs.Config, program string, opts search.Options) *service {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 100 * time.Millisecond
	}
	cfg.Lookup = lookup
	srv, err := jobs.New(cfg)
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Close() })
	s := &service{Server: srv, url: hs.URL}
	if ids := srv.JobIDs(); len(ids) > 0 {
		s.id = ids[0]
	} else if s.id, err = srv.Submit(jobs.SubmitRequest{Spec: named(program, opts), RefParallelism: 2}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	s.job = s.url + jobs.PathJobPrefix + s.id
	for deadline := time.Now().Add(30 * time.Second); s.status(t).State != jobs.StateRunning; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never mounted: %+v", s.id, s.status(t))
		}
	}
	return s
}

// status is the job's status, as GET /v1/jobs/<id> answers it.
func (s *service) status(t *testing.T) jobs.JobStatus {
	t.Helper()
	resp, err := http.Get(s.url + jobs.PathJobs + "/" + s.id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// report waits for the job to finish and returns its merged report.
func (s *service) report(t *testing.T) *search.Report {
	t.Helper()
	st, rep := s.Wait(s.id)
	if st.State != jobs.StateDone || rep == nil {
		t.Fatalf("job %s ended %q (%s), want done", s.id, st.State, st.Error)
	}
	return rep
}

// finish runs n in-process workers until the job is done, closes the
// service — which sends them home — and returns the merged report.
func (s *service) finish(t *testing.T, n int) *search.Report {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(dist.WorkerConfig{URL: s.url, Lookup: lookup})
		}(i)
	}
	rep := s.report(t)
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return rep
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

// TestDistMatchesLocal: a job served to two workers produces the same
// report — field for field, and byte for byte as a run report —
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
			got := startJob(t, jobs.Config{}, tc.program, tc.opts).finish(t, 2)

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

// wire is in as the protocol sends it: a result post as its frame, a
// lease request — naming this build's codec unless it names one — and
// anything else as JSON.
func wire(t testing.TB, in any) []byte {
	t.Helper()
	var body []byte
	var err error
	switch v := in.(type) {
	case dist.ResultRequest:
		body, err = v.Encode(nil)
	case dist.LeaseRequest:
		if v.Codec == 0 {
			v.Codec = por.CodecVersion
		}
		body, err = json.Marshal(v)
	default:
		body, err = json.Marshal(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// unwire decodes a response body into out: a lease answer from its
// frame, anything else from JSON.
func unwire(t testing.TB, data []byte, out any) {
	t.Helper()
	var err error
	if lr, ok := out.(*dist.LeaseResponse); ok {
		var got *dist.LeaseResponse
		if got, err = dist.DecodeLease(data); err == nil {
			*lr = *got
		}
	} else {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
}

// postJSON is a minimal protocol client for fault injection.
func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	postJSONKey(t, url, "", in, out)
}

// leaseWork asks the service for work as workerID, requires a grant of
// the job, and returns the first one (the only one unless the plan is a
// DPOR wave).
func (s *service) leaseWork(t *testing.T, workerID string) dist.Grant {
	t.Helper()
	return s.leaseBatch(t, workerID)[0]
}

// leaseBatch is leaseWork returning everything the call granted.
func (s *service) leaseBatch(t *testing.T, workerID string) []dist.Grant {
	t.Helper()
	var lr dist.LeaseResponse
	postJSON(t, s.url+dist.PathLease, dist.LeaseRequest{WorkerID: workerID}, &lr)
	if lr.Status != dist.LeaseWork || len(lr.Grants) == 0 || lr.Job != s.id {
		t.Fatalf("lease status %q with %d grants of job %q, want %q of %s", lr.Status, len(lr.Grants), lr.Job, dist.LeaseWork, s.id)
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
	s := startJob(t, jobs.Config{LeaseTTL: 500 * time.Millisecond}, "fig3", opts)

	// The doomed worker: leases one shard, never speaks again.
	lr := s.leaseWork(t, "doomed")

	got := s.finish(t, 1)

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

// TestDistUnknownProgram: a worker that does not have the job's program
// refuses cleanly instead of running the wrong thing.
func TestDistUnknownProgram(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	s := startJob(t, jobs.Config{}, "fig3", opts)
	err := dist.RunWorker(dist.WorkerConfig{
		URL:    s.url,
		Lookup: func(string) (func(*engine.T), bool) { return nil, false },
	})
	if err == nil || !strings.Contains(err.Error(), "does not have") {
		t.Fatalf("err = %v, want unknown-program refusal", err)
	}
}
