package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/dist/transport"
	"fairmc/internal/engine"
	"fairmc/internal/ledger"
	"fairmc/internal/obs"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
	"fairmc/internal/wm"
	"fairmc/progs"
)

// fig3 is the paper's Figure 3 spin-loop program.
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

// racyIncrement is a lost-update race.
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

// sbWeak is the store-buffering litmus shape over the weak-memory
// subsystem: it follows the search's memory-model option, so a job
// submitted with MemModel "tso" explores flush delay (and finds the
// weak outcome), exercising memory-model plumbing through the wire
// protocol and the ledger.
func sbWeak(t *engine.T) {
	m := wm.New(t, "m", 2)
	r0 := syncmodel.NewIntVar(t, "r0", -1)
	r1 := syncmodel.NewIntVar(t, "r1", -1)
	wg := syncmodel.NewWaitGroup(t, "wg", 2)
	t.Go("a", func(t *engine.T) {
		m.Store(t, 0, 1)
		r0.Store(t, m.Load(t, 1))
		wg.Done(t)
	})
	t.Go("b", func(t *engine.T) {
		m.Store(t, 1, 1)
		r1.Store(t, m.Load(t, 0))
		wg.Done(t)
	})
	wg.Wait(t)
	t.Assert(r0.Load(t) == 1 || r1.Load(t) == 1, "sb weak outcome")
	m.Drain(t)
}

var testProgs = map[string]func(*engine.T){
	"fig3":   fig3,
	"racy":   racyIncrement,
	"sbweak": sbWeak,
	// The service benchmark's subject, from the shipped catalog.
	"boundedbuffer": catalog("boundedbuffer"),
	// Livelocks under the fair scheduler: every execution runs to MaxSteps.
	"livelock": catalog("promise-livelock"),
}

func catalog(name string) func(*engine.T) {
	p, ok := progs.Lookup(name)
	if !ok {
		panic("no catalog program " + name)
	}
	return p.Body
}

func testLookup(name string) (func(*engine.T), bool) {
	p, ok := testProgs[name]
	return p, ok
}

var baseOpts = search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}

// named is opts for the test program registered as name.
func named(name string, opts search.Options) search.Options {
	opts.ProgramName = name
	return opts
}

// dporJobOpts submits a DPOR search: the job's shard plan starts as a
// single root unit and grows as units merge.
var dporJobOpts = search.Options{
	Fair:                   false,
	ContextBound:           -1,
	MaxSteps:               10000,
	DPOR:                   true,
	ContinueAfterViolation: true,
}

// tsoJobOpts submits a TSO search: schedules and digests include
// flush-agent steps, and the spec carries the memory model.
var tsoJobOpts = search.Options{
	Fair:                   true,
	ContextBound:           -1,
	MaxSteps:               10000,
	MemModel:               "tso",
	ContinueAfterViolation: true,
}

// fastPolicy is an aggressive retry policy so tests converge quickly.
func fastPolicy(seed uint64) transport.Policy {
	return transport.Policy{
		MaxAttempts: 6,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Seed:        seed,
	}
}

// startService builds a Server on cfg (filling test defaults) and
// serves it on an httptest server.
func startService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Lookup == nil {
		cfg.Lookup = testLookup
	}
	if cfg.Coordinator.LeaseTTL == 0 {
		cfg.Coordinator.LeaseTTL = 5 * time.Second
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	// Close waits out the job goroutines, which log through t.Logf; it
	// is idempotent, so tests that close (and restart) themselves may.
	t.Cleanup(func() { s.Close() })
	return s, srv
}

// startPool launches n pool workers against url; the returned stop
// function halts them and waits for clean exits.
func startPool(t *testing.T, url, workDir string, n int) (stop func()) {
	t.Helper()
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunPoolWorker(PoolConfig{
				URL:     url,
				WorkDir: workDir,
				Lookup:  testLookup,
				Retry:   fastPolicy(uint64(i)),
				Stop:    stopCh,
			})
		}(i)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(stopCh)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("pool worker %d: %v", i, err)
				}
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

func submitJob(t *testing.T, url, program string, opts search.Options, refPar int) string {
	t.Helper()
	id, status, err := trySubmit(url, program, opts, refPar)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("submit: HTTP %d", status)
	}
	return id
}

func trySubmit(url, program string, opts search.Options, refPar int) (string, int, error) {
	body, _ := json.Marshal(SubmitRequest{
		Spec:           named(program, opts),
		RefParallelism: refPar,
	})
	resp, err := http.Post(url+PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", resp.StatusCode, nil
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", resp.StatusCode, err
	}
	return sr.JobID, resp.StatusCode, nil
}

func jobStatus(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + PathJobs + "/" + id)
	if err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	return st
}

// waitState polls until the job reaches state (any terminal state
// fails fast if it is the wrong one).
func waitState(t *testing.T, url, id, state string) JobStatus {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		st := jobStatus(t, url, id)
		if st.State == state {
			return st
		}
		if st.State == StateDone || st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("%s reached %q (error %q), want %q", id, st.State, st.Error, state)
		}
		select {
		case <-deadline:
			t.Fatalf("%s stuck in %q, want %q", id, st.State, state)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func fetchReport(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + PathJobs + "/" + id + "/report")
	if err != nil {
		t.Fatalf("report %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: HTTP %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("report %s: %v", id, err)
	}
	return data
}

// localReportBytes renders the run report of an uninterrupted local
// run at refPar — the byte-identity reference for service artifacts.
func localReportBytes(t *testing.T, program string, opts search.Options, refPar int) []byte {
	t.Helper()
	ref := opts
	ref.Parallelism = refPar
	prog, _ := testLookup(program)
	rep := search.Explore(prog, ref)
	data, err := fairmc.ResultFromReport(rep).RunReport(program, opts).Encode()
	if err != nil {
		t.Fatalf("local report: %v", err)
	}
	return data
}

// TestJobsServiceEndToEnd: three jobs share one two-worker pool under
// MaxActive=2; every artifact is byte-identical to its local
// reference run.
func TestJobsServiceEndToEnd(t *testing.T) {
	m := &obs.Metrics{}
	_, srv := startService(t, Config{
		Dir: t.TempDir(), MaxActive: 2, Metrics: m,
	})
	startPool(t, srv.URL, t.TempDir(), 2)

	type sub struct {
		program string
		opts    search.Options
		refPar  int
	}
	subs := []sub{
		{"fig3", baseOpts, 1},
		{"fig3", baseOpts, 2},
		{"racy", baseOpts, 2},
		{"racy", dporJobOpts, 2},
		{"sbweak", tsoJobOpts, 2},
	}
	var ids []string
	for _, sb := range subs {
		ids = append(ids, submitJob(t, srv.URL, sb.program, sb.opts, sb.refPar))
	}
	for i, id := range ids {
		// A violation-finding job may seal before every shard is decided
		// (the search stops at the first counterexample), so Decided only
		// has a lower bound here.
		st := waitState(t, srv.URL, id, StateDone)
		if !st.HasReport || st.Shards == 0 || st.Decided == 0 || st.Decided > st.Shards {
			t.Fatalf("%s finished oddly: %+v", id, st)
		}
		got := fetchReport(t, srv.URL, id)
		want := localReportBytes(t, subs[i].program, subs[i].opts, subs[i].refPar)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s artifact differs from local -p %d run:\n%s\nvs\n%s",
				id, subs[i].refPar, got, want)
		}
	}

	// List shows all submissions, in order, done.
	resp, err := http.Get(srv.URL + PathJobs)
	if err != nil {
		t.Fatal(err)
	}
	var list ListResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Jobs) != len(subs) {
		t.Fatalf("list = %+v", list)
	}
	for i, js := range list.Jobs {
		if js.JobID != ids[i] || js.State != StateDone {
			t.Fatalf("list[%d] = %+v, want %s done", i, js, ids[i])
		}
	}
	snap := m.Snapshot()
	if snap.JobsSubmitted != int64(len(subs)) || snap.JobsDone != int64(len(subs)) {
		t.Fatalf("metrics: %+v", snap)
	}
	if snap.LedgerAppends == 0 {
		t.Fatal("no ledger appends recorded")
	}
}

// TestJobsRestartServesReportsWithoutReExploration: a restarted
// service answers status and artifact requests for completed jobs
// purely from the ledger — no worker ever runs in the second
// incarnation.
func TestJobsRestartServesReportsWithoutReExploration(t *testing.T) {
	dir := t.TempDir()
	s1, srv1 := startService(t, Config{Dir: dir})
	stopPool := startPool(t, srv1.URL, t.TempDir(), 1)
	id := submitJob(t, srv1.URL, "racy", baseOpts, 2)
	waitState(t, srv1.URL, id, StateDone)
	want := fetchReport(t, srv1.URL, id)
	stopPool() // its idle assign call would hold srv1.Close for the hold
	srv1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}

	m := &obs.Metrics{}
	s2, srv2 := startService(t, Config{Dir: dir, Metrics: m})
	defer s2.Close()
	st := jobStatus(t, srv2.URL, id)
	if st.State != StateDone || !st.HasReport {
		t.Fatalf("replayed status: %+v", st)
	}
	got := fetchReport(t, srv2.URL, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact changed across restart:\n%s\nvs\n%s", got, want)
	}
	if ex := m.Snapshot().Executions; ex != 0 {
		t.Fatalf("restart re-explored a completed job (%d executions)", ex)
	}
}

// TestJobsRestartResumesUnfinished: a job interrupted by service
// shutdown is re-queued on restart and completes with the same
// artifact an uninterrupted run produces.
func TestJobsRestartResumesUnfinished(t *testing.T) {
	dir := t.TempDir()
	s1, srv1 := startService(t, Config{Dir: dir})
	// No workers: the job mounts and sits there.
	id := submitJob(t, srv1.URL, "fig3", baseOpts, 2)
	waitState(t, srv1.URL, id, StateRunning)
	srv1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}

	s2, srv2 := startService(t, Config{Dir: dir})
	defer s2.Close()
	startPool(t, srv2.URL, t.TempDir(), 2)
	waitState(t, srv2.URL, id, StateDone)
	got := fetchReport(t, srv2.URL, id)
	if want := localReportBytes(t, "fig3", baseOpts, 2); !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact differs:\n%s\nvs\n%s", got, want)
	}
}

// TestJobsOneJobRun: the in-process API a -serve -prog run drives.
// Submit records the search; Close under the unfinished job makes Wait
// hand back the interrupted merge, not a terminal state; a second
// incarnation over the same ledger finds the submission as it was made,
// and Wait on it returns the report an uninterrupted local run produces
// — at once, when asked again after it finished.
func TestJobsOneJobRun(t *testing.T) {
	dir := t.TempDir()
	req := SubmitRequest{Spec: named("fig3", baseOpts), RefParallelism: 2}
	s1, srv1 := startService(t, Config{Dir: dir})
	id, err := s1.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s1.Submit(SubmitRequest{Spec: search.Options{ProgramName: "nope"}}); err == nil {
		t.Fatal("Submit accepted an unknown program")
	}
	waitState(t, srv1.URL, id, StateRunning)
	go s1.Close() // no workers: the job never finishes here
	if st, rep := s1.Wait(id); st.State == StateDone || rep == nil || !rep.Interrupted {
		t.Fatalf("Wait on a job the server closed under: state %q report %+v, want unfinished and interrupted", st.State, rep)
	}

	s2, srv2 := startService(t, Config{Dir: dir})
	if ids := s2.JobIDs(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("second incarnation's jobs = %v, want [%s]", ids, id)
	}
	if got, ok := s2.Submission(id); !ok || got != req {
		t.Fatalf("Submission(%s) = %+v, want %+v", id, got, req)
	}
	startPool(t, srv2.URL, t.TempDir(), 2)
	want := localReportBytes(t, "fig3", baseOpts, 2)
	for i := 0; i < 2; i++ {
		st, rep := s2.Wait(id)
		if st.State != StateDone || rep == nil {
			t.Fatalf("Wait %d: state %q report %v", i, st.State, rep)
		}
		got, err := fairmc.ResultFromReport(rep).RunReport("fig3", req.Spec).Encode()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Wait %d: report differs from local -p 2 (%v):\n%s\nvs\n%s", i, err, got, want)
		}
	}
}

// postProto is a minimal protocol client for driving a job's
// coordinator by hand.
func postProto(t *testing.T, url string, in, out any) {
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

// TestJobsDPORRestartResumesMidSearch: a DPOR job's ledger records
// completed units at indices beyond the recorded one-shard plan (the
// plan grows as units merge). A restarted service must adopt those
// records — folding them in ledger order regenerates the same
// children — and finish with the artifact an uninterrupted run
// produces. The service is killed mid-batch: the root unit is completed
// by hand, then the wave its merge spawned is leased in one call and
// only the first two of its units are posted back — so the crash point
// is deterministic, strictly inside the grown region, and leaves leases
// of the batch outstanding.
func TestJobsDPORRestartResumesMidSearch(t *testing.T) {
	dir := t.TempDir()
	s1, srv1 := startService(t, Config{Dir: dir})
	id := submitJob(t, srv1.URL, "racy", dporJobOpts, 2)
	waitState(t, srv1.URL, id, StateRunning)

	// Complete units 0 and 1 through the wire protocol (unit 1 exists
	// only after unit 0's merge grew the plan): lease at the service,
	// post to the job path the grant names.
	const worker = "by-hand"
	opts := named("racy", dporJobOpts)
	for i, post := range []int{1, 2} {
		var lr dist.LeaseResponse
		postProto(t, srv1.URL+dist.PathLease, dist.LeaseRequest{WorkerID: worker}, &lr)
		if lr.Status != dist.LeaseWork || len(lr.Grants) < post || (i == 1 && len(lr.Grants) <= post) {
			t.Fatalf("lease %d: status %q with %d grants; want the root alone, then a wave of more than %d", i, lr.Status, len(lr.Grants), post)
		}
		if lr.Job != id || lr.Path != PathJobPrefix+id || lr.Spec == nil || lr.OptionsHash != search.OptionsHash(&opts) {
			t.Fatalf("lease %d does not name its job: %+v, want %s", i, lr, id)
		}
		base := srv1.URL + lr.Path
		req := dist.ResultRequest{WorkerID: worker}
		for _, g := range lr.Grants[:post] {
			if g.Shard.Unit == nil {
				t.Fatalf("lease %d: shard %d carries no DPOR unit", i, g.Shard.Index)
			}
			req.Results = append(req.Results, dist.ShardResult{
				LeaseID: g.LeaseID, Shard: g.Shard.Index,
				Report: search.RunShard(testProgs["racy"], opts, g.Shard, nil),
			})
		}
		var rr dist.ResultResponse
		postProto(t, base+dist.PathResult, req, &rr)
		if len(rr.Accepted) != post || slices.Contains(rr.Accepted, false) {
			t.Fatalf("result batch %d: %+v, want %d accepted", i, rr, post)
		}
	}
	srv1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}

	s2, srv2 := startService(t, Config{Dir: dir})
	defer s2.Close()
	startPool(t, srv2.URL, t.TempDir(), 2)
	waitState(t, srv2.URL, id, StateDone)
	got := fetchReport(t, srv2.URL, id)
	if want := localReportBytes(t, "racy", dporJobOpts, 2); !bytes.Equal(got, want) {
		t.Fatalf("resumed DPOR artifact differs:\n%s\nvs\n%s", got, want)
	}
}

// TestJobsAdmissionControl: beyond MaxJobs the service sheds
// submissions with 429 + Retry-After instead of queueing without
// bound.
func TestJobsAdmissionControl(t *testing.T) {
	m := &obs.Metrics{}
	_, srv := startService(t, Config{Dir: t.TempDir(), MaxJobs: 2, Metrics: m})
	// No workers: both jobs stay non-terminal.
	submitJob(t, srv.URL, "fig3", baseOpts, 1)
	submitJob(t, srv.URL, "fig3", baseOpts, 1)

	body, _ := json.Marshal(SubmitRequest{Spec: named("fig3", baseOpts)})
	resp, err := http.Post(srv.URL+PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if m.Snapshot().JobsShed != 1 {
		t.Fatalf("metrics: %+v", m.Snapshot())
	}
}

// TestJobsCancel: a queued job cancels immediately; a running job is
// interrupted and lands in cancelled durably (it stays cancelled
// after a restart).
func TestJobsCancel(t *testing.T) {
	dir := t.TempDir()
	s1, srv := startService(t, Config{Dir: dir, MaxActive: 1})
	// No workers: j1 mounts and blocks, j2 queues behind MaxActive=1.
	id1 := submitJob(t, srv.URL, "fig3", baseOpts, 1)
	id2 := submitJob(t, srv.URL, "fig3", baseOpts, 1)
	waitState(t, srv.URL, id1, StateRunning)
	if st := jobStatus(t, srv.URL, id2); st.State != StateQueued {
		t.Fatalf("j2 state = %q, want queued", st.State)
	}

	cancel := func(id string) CancelResponse {
		resp, err := http.Post(srv.URL+PathJobs+"/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr CancelResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	if cr := cancel(id2); cr.State != StateCancelled {
		t.Fatalf("queued cancel: %+v", cr)
	}
	if st := jobStatus(t, srv.URL, id2); st.State != StateCancelled {
		t.Fatalf("j2 after cancel: %+v", st)
	}
	cancel(id1)
	deadline := time.After(15 * time.Second)
	for jobStatus(t, srv.URL, id1).State != StateCancelled {
		select {
		case <-deadline:
			t.Fatalf("j1 never cancelled: %+v", jobStatus(t, srv.URL, id1))
		case <-time.After(20 * time.Millisecond):
		}
	}
	srv.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Cancellations are durable.
	s2, srv2 := startService(t, Config{Dir: dir})
	defer s2.Close()
	for _, id := range []string{id1, id2} {
		if st := jobStatus(t, srv2.URL, id); st.State != StateCancelled {
			t.Fatalf("%s after restart: %+v", id, st)
		}
	}
}

// TestJobsUnknownProgram: submissions naming a program the service
// cannot run are refused at admission, not queued to fail later.
func TestJobsUnknownProgram(t *testing.T) {
	_, srv := startService(t, Config{Dir: t.TempDir()})
	_, status, err := trySubmit(srv.URL, "no-such-program", baseOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", status)
	}
}

// TestJobsStatusEndpoint: the service-level summary tracks job states.
func TestJobsStatusEndpoint(t *testing.T) {
	_, srv := startService(t, Config{Dir: t.TempDir()})
	startPool(t, srv.URL, t.TempDir(), 1)
	id := submitJob(t, srv.URL, "racy", baseOpts, 1)
	waitState(t, srv.URL, id, StateDone)

	resp, err := http.Get(srv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Queued+st.Running+st.Failed+st.Cancelled != 0 {
		t.Fatalf("service status: %+v", st)
	}

	mresp, err := http.Get(srv.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Status.Done != 1 {
		t.Fatalf("metrics status: %+v", mr.Status)
	}
}

// TestJobsRebuildBadRecordsSurfaced: WAL records from a future build
// (unknown type, or a known type that fails to decode) are reported
// in badRecs, never fatal, and never corrupt neighbouring jobs.
func TestJobsRebuildBadRecordsSurfaced(t *testing.T) {
	sub, _ := json.Marshal(submittedRec{Job: "j1", Spec: named("fig3", baseOpts)})
	st := rebuild([]ledger.Record{
		{Seq: 1, Type: recSubmitted, Data: sub},
		{Seq: 2, Type: "hologram_checkpoint", Data: json.RawMessage(`{}`)},
		{Seq: 3, Type: search.RecPlan, Data: json.RawMessage(`{"job":`)},
	})
	if len(st.badRecs) != 2 {
		t.Fatalf("badRecs = %v, want 2", st.badRecs)
	}
	if j := st.jobs["j1"]; j == nil || j.State != StateQueued {
		t.Fatalf("good record lost next to bad ones: %+v", st.jobs)
	}
}

// TestJobsOldShapeSubmissionRefused: a submission shaped as an older
// build wrote it — the watchdog in milliseconds inside the spec,
// confirmation runs beside it — names settings this build's options do
// not, so it is refused instead of run without them: in the ledger the
// job fails (a finished one keeps its report), over HTTP the POST is a
// 400. A pool worker is granted nothing and polls on.
func TestJobsOldShapeSubmissionRefused(t *testing.T) {
	dir := t.TempDir()
	oldSpec := `{"program":"fig3","fair":true,"contextBound":-1,"maxSteps":10000,"seed":0,"watchdogMs":2000}`
	led, _, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.AppendAll(
		ledger.Entry{Type: recSubmitted, Value: json.RawMessage(`{"job":"j1","spec":` + oldSpec + `,"refParallelism":2,"confirmRuns":3}`)},
		ledger.Entry{Type: recSubmitted, Value: json.RawMessage(`{"job":"j2","spec":` + oldSpec + `,"refParallelism":1}`)},
		ledger.Entry{Type: recDone, Value: doneRec{Job: "j2", State: StateDone, RunReport: []byte("{}\n")}},
	); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	s, srv := startService(t, Config{Dir: dir})
	stop, exited := make(chan struct{}), make(chan error, 1)
	go func() {
		exited <- RunPoolWorker(PoolConfig{URL: srv.URL, Lookup: testLookup, Retry: fastPolicy(1), Stop: stop})
	}()
	st := jobStatus(t, srv.URL, "j1")
	if st.State != StateFailed || !strings.Contains(st.Error, "watchdogMs") {
		t.Fatalf("old-shape queued job = %+v, want failed naming the unknown field", st)
	}
	if st := jobStatus(t, srv.URL, "j2"); st.State != StateDone {
		t.Fatalf("old-shape finished job = %+v, want its recorded done state", st)
	}
	if len(s.badRecs) != 2 {
		t.Fatalf("badRecs = %v, want both old-shape submissions", s.badRecs)
	}

	resp, err := http.Post(srv.URL+PathJobs, "application/json",
		strings.NewReader(`{"spec":`+oldSpec+`,"refParallelism":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "watchdogMs") {
		t.Fatalf("old-shape POST = HTTP %d %q, want 400 naming the unknown field", resp.StatusCode, body)
	}

	select {
	case err := <-exited:
		t.Fatalf("the pool worker exited (%v) instead of polling on", err)
	default:
	}
	close(stop)
	if err := <-exited; err != nil {
		t.Fatalf("pool worker: %v", err)
	}
}

// TestJobsPlanHashSkewFailsJob: a restarted service whose ledger holds a
// plan hashed otherwise than this build hashes the job's options — a
// ledger from another version; here the recorded hash is flipped — fails
// the job, naming both hashes, instead of granting shards that every
// worker refuses (exit 2) while the job hangs in running. The pool
// worker is never granted the plan and is still polling afterwards.
func TestJobsPlanHashSkewFailsJob(t *testing.T) {
	dir := t.TempDir()
	opts := named("fig3", baseOpts)
	plan, err := search.PlanShards(fig3, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan.OptionsHash ^= 1
	led, _, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.AppendAll(
		ledger.Entry{Type: recSubmitted, Value: submittedRec{Job: "j1", Spec: opts, RefParallelism: 2}},
		ledger.Entry{Type: search.RecPlan, Value: search.PlanRec{Job: "j1", OptionsHash: plan.OptionsHash, Plan: plan}},
	); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	_, srv := startService(t, Config{Dir: dir})
	stop, exited := make(chan struct{}), make(chan error, 1)
	go func() {
		exited <- RunPoolWorker(PoolConfig{URL: srv.URL, Lookup: testLookup, Retry: fastPolicy(1), Stop: stop})
	}()
	st := waitState(t, srv.URL, "j1", StateFailed)
	for _, h := range []uint64{plan.OptionsHash, search.OptionsHash(&opts)} {
		if !strings.Contains(st.Error, fmt.Sprintf("%#x", h)) {
			t.Errorf("failed job's error %q does not name hash %#x", st.Error, h)
		}
	}
	select {
	case err := <-exited:
		t.Fatalf("the pool worker exited (%v) instead of polling on", err)
	default:
	}
	close(stop)
	if err := <-exited; err != nil {
		t.Fatalf("pool worker: %v", err)
	}
}
