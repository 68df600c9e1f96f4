package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// boundedbufferOpts is the service benchmark's job: unfair DPOR with
// sleep sets over boundedbuffer, 117 single-execution units.
var boundedbufferOpts = search.Options{ContextBound: -1, MaxSteps: 5000, DPOR: true, SleepSets: true}

// countingTransport counts every request a worker sends, by endpoint
// (a job path's prefix cut off).
type countingTransport struct {
	mu     sync.Mutex
	counts map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	endpoint := req.URL.Path
	if rest, ok := strings.CutPrefix(endpoint, PathJobPrefix); ok {
		_, endpoint, _ = strings.Cut(rest, "/")
		endpoint = "/" + endpoint
	}
	c.mu.Lock()
	c.counts[endpoint]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (c *countingTransport) total() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.counts {
		n += k
	}
	return n
}

// syncCountingFS counts fsyncs of the files opened through it.
type syncCountingFS struct {
	fsx.FS
	syncs *atomic.Int64
}

type syncCountingFile struct {
	fsx.File
	syncs *atomic.Int64
}

func (f syncCountingFile) Sync() error { f.syncs.Add(1); return f.File.Sync() }

func (c syncCountingFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountingFile{f, c.syncs}, nil
}

// TestJobsRoundTripBudget is the per-wave protocol as a count: one
// boundedbuffer DPOR+sleep job — 117 units of one execution each —
// served by one worker costs a lease, a result post and two ledger
// fsyncs per wave of the frontier, not per unit (234 requests and 120
// fsyncs when every unit was leased, posted and committed on its own),
// and nothing beside them: 6 waves, and the lease call the worker is
// parked on afterwards (16 requests when a worker was assigned to a
// job, joined it and flushed its telemetry on leaving).
func TestJobsRoundTripBudget(t *testing.T) {
	var syncs atomic.Int64
	m := &obs.Metrics{}
	_, srv := startService(t, Config{
		Dir: t.TempDir(), Metrics: m,
		FS: syncCountingFS{fsx.OS, &syncs},
	})
	tr := &countingTransport{counts: map[string]int{}}
	stopCh := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- RunPoolWorker(PoolConfig{
			URL: srv.URL, Lookup: testLookup, Retry: fastPolicy(1), Stop: stopCh, Transport: tr,
		})
	}()
	defer func() {
		close(stopCh)
		if err := <-done; err != nil {
			t.Errorf("pool worker: %v", err)
		}
	}()

	id := submitJob(t, srv.URL, "boundedbuffer", boundedbufferOpts, 2)
	st := waitState(t, srv.URL, id, StateDone)
	if st.Shards != 117 || st.Decided != 117 {
		t.Fatalf("job finished with %d/%d shards decided, want 117/117 — the fixture changed", st.Decided, st.Shards)
	}
	got := fetchReport(t, srv.URL, id)
	if want := localReportBytes(t, "boundedbuffer", boundedbufferOpts, 2); !bytes.Equal(got, want) {
		t.Fatalf("artifact differs from local -p 2:\n%s\nvs\n%s", got, want)
	}

	tr.mu.Lock()
	t.Logf("worker requests: %v; ledger fsyncs: %d; ledger appends: %d", tr.counts, syncs.Load(), m.Snapshot().LedgerAppends)
	for endpoint := range tr.counts {
		if endpoint != dist.PathLease && endpoint != dist.PathResult {
			t.Errorf("the worker called %s: a short job costs lease and result calls only", endpoint)
		}
	}
	tr.mu.Unlock()
	if n := tr.total(); n > 13 {
		t.Errorf("%d worker requests for one job, budget 13", n)
	}
	if n := syncs.Load(); n > 12 {
		t.Errorf("%d ledger fsyncs for one job, budget 12", n)
	}
}

// TestJobsPoolWorkerGoroutinesFlat: a pool worker's goroutine count
// does not grow with the jobs (or shards) it has served.
func TestJobsPoolWorkerGoroutinesFlat(t *testing.T) {
	_, srv := startService(t, Config{Dir: t.TempDir(), MaxJobs: 64})
	stop := startPool(t, srv.URL, "", 1)
	defer stop()

	runJobs := func(n int) {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = submitJob(t, srv.URL, "racy", dporJobOpts, 2)
		}
		for _, id := range ids {
			waitState(t, srv.URL, id, StateDone)
		}
	}
	// settled waits out what finishing jobs leave running for a moment:
	// coordinator sweeps, drain waits, idle HTTP connections.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(20 * time.Millisecond)
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			if next := runtime.NumGoroutine(); next >= n {
				return next
			} else {
				n = next
			}
		}
		return n
	}
	runJobs(2)
	before := settled()
	runJobs(20)
	after := settled()
	if after > before+5 {
		t.Fatalf("goroutines grew from %d to %d across 20 jobs through one pool worker", before, after)
	}
}

// leaseAnswer is one raw lease call at the service, as its caller saw it.
type leaseAnswer struct {
	lr       dist.LeaseResponse
	code     int
	sent, at time.Time
}

// woken reports whether the call was answered by a wake: after event,
// and before its own hold could have run out.
func (a leaseAnswer) woken(event time.Time) bool {
	return a.code == http.StatusOK && !a.at.Before(event) && a.at.Before(a.sent.Add(dist.LeaseHold))
}

// askLease sends one lease call as worker, gives it a moment to park
// (the service has nothing it could grant at once in any caller's
// scenario), and returns the channel its answer arrives on.
func askLease(t *testing.T, url, worker string) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	body := wire(t, dist.LeaseRequest{WorkerID: worker})
	go func() {
		a := leaseAnswer{sent: time.Now()}
		resp, err := http.Post(url+dist.PathLease, "application/json", bytes.NewReader(body))
		if err == nil {
			a.code = resp.StatusCode
			data, _ := io.ReadAll(resp.Body)
			unwire(data, &a.lr)
			resp.Body.Close()
		}
		a.at = time.Now()
		out <- a
	}()
	time.Sleep(50 * time.Millisecond)
	return out
}

// TestServiceLeaseFollowsWork: a lease call parked at the service is
// answered by whatever makes work appear anywhere in it, and by nothing
// else. Two idle workers ask while nothing is mounted; a job with one
// grantable unit mounts — one of them is granted it, the other stays
// parked at the service and is granted the next submitted job's root
// unit without waiting for the first job to end. A third parked call is
// answered the moment a merged batch grows a plan, a fourth the moment
// the service closes ("done").
func TestServiceLeaseFollowsWork(t *testing.T) {
	s, srv := startService(t, Config{Dir: t.TempDir()})
	await := func(what string, ch <-chan leaseAnswer) leaseAnswer {
		t.Helper()
		select {
		case a := <-ch:
			return a
		case <-time.After(dist.LeaseHold + 2*time.Second):
			t.Fatalf("%s: lease call still open after the hold", what)
			panic("unreachable")
		}
	}
	rootOf := func(what string, a leaseAnswer, id string, event time.Time) {
		t.Helper()
		lr := a.lr
		if !a.woken(event) || lr.Status != dist.LeaseWork || lr.Job != id || lr.Path != PathJobPrefix+id ||
			len(lr.Grants) != 1 || lr.Grants[0].Shard.Unit == nil || lr.Spec == nil || lr.LeaseTTLMS == 0 {
			t.Fatalf("%s: answered HTTP %d %+v, %s after it was sent; want %s's root unit, woken", what, a.code, lr, a.at.Sub(a.sent), id)
		}
	}

	x, y := askLease(t, srv.URL, "x"), askLease(t, srv.URL, "y")
	mounting := time.Now()
	id1 := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	var first leaseAnswer
	other := y
	select {
	case first = <-x:
	case first = <-y:
		other = x
	case <-time.After(dist.LeaseHold + 2*time.Second):
		t.Fatal("no parked lease call answered when a job mounted")
	}
	rootOf("job mounts", first, id1, mounting)

	// The other one is still parked — at the service, not on j1: the next
	// job's root is its.
	select {
	case a := <-other:
		t.Fatalf("the second idle worker was answered %+v with j1's one unit taken, want it parked", a.lr)
	case <-time.After(50 * time.Millisecond):
	}
	mounting = time.Now()
	id2 := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	rootOf("second job mounts", await("second job mounts", other), id2, mounting)
	if st := jobStatus(t, srv.URL, id1); st.State != StateRunning {
		t.Fatalf("j1 is %q when the second worker is granted j2, want still running", st.State)
	}

	// Everything planned is leased: a third call parks, until the first
	// worker's result grows j1's plan.
	z := askLease(t, srv.URL, "z")
	var opts search.Options
	if err := json.Unmarshal(first.lr.Spec, &opts); err != nil {
		t.Fatal(err)
	}
	g := first.lr.Grants[0]
	growing := time.Now()
	postProto(t, srv.URL+first.lr.Path+dist.PathResult, dist.ResultRequest{WorkerID: "x-or-y", Results: []dist.ShardResult{
		{LeaseID: g.LeaseID, Shard: g.Shard.Index, Report: search.RunShard(testProgs["racy"], opts, g.Shard, nil)},
	}}, &dist.ResultResponse{})
	if a := await("plan grows", z); !a.woken(growing) || a.lr.Status != dist.LeaseWork || a.lr.Job != id1 || len(a.lr.Grants) < 2 {
		t.Fatalf("plan grows: answered HTTP %d %+v; want the wave j1's root spawned, woken", a.code, a.lr)
	}

	// And a fourth, until the service closes.
	c := askLease(t, srv.URL, "c")
	closing := time.Now()
	go s.Close()
	if a := await("service closes", c); !a.woken(closing) || a.lr.Status != dist.LeaseDone {
		t.Fatalf("service closes: answered HTTP %d %+v, want done, woken", a.code, a.lr)
	}
}

// heartbeatGate holds a worker's heartbeats back until released, and
// records what they were answered.
type heartbeatGate struct {
	release chan struct{}
	mu      sync.Mutex
	codes   []int
}

func (g *heartbeatGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, dist.PathHeartbeat) {
		return http.DefaultTransport.RoundTrip(req)
	}
	select {
	case <-g.release:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		g.mu.Lock()
		g.codes = append(g.codes, resp.StatusCode)
		g.mu.Unlock()
	}
	return resp, err
}

// TestServiceCancelledJobIsGone: a worker mid-wave on a job that is
// cancelled gets 404 on its next heartbeat — the job's path is gone
// with the job — drops the wave, spools nothing, and is granted the
// next job.
func TestServiceCancelledJobIsGone(t *testing.T) {
	m := &obs.Metrics{}
	_, srv := startService(t, Config{Dir: t.TempDir(), LeaseTTL: 300 * time.Millisecond})
	// Range shards of executions that each run a million steps: the
	// first outlives the test unless it is cancelled.
	long := search.Options{Fair: true, RandomWalk: true, MaxExecutions: 1 << 40, MaxSteps: 1 << 20, Seed: 1, ContinueAfterDivergence: true}
	id1 := submitJob(t, srv.URL, "livelock", long, 1)

	gate := &heartbeatGate{release: make(chan struct{})}
	workDir := t.TempDir()
	var logMu sync.Mutex
	var logs []string
	stopCh := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(dist.WorkerConfig{
			URL: srv.URL, WorkDir: workDir, Lookup: testLookup, Metrics: m,
			Retry: fastPolicy(1), Stop: stopCh, Transport: gate,
			Logf: func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
			},
		})
	}()
	for m.Snapshot().Executions == 0 { // mid-wave
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(srv.URL+PathJobs+"/"+id1+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, srv.URL, id1, StateCancelled)
	close(gate.release)

	id2 := submitJob(t, srv.URL, "fig3", baseOpts, 2)
	waitState(t, srv.URL, id2, StateDone)
	close(stopCh)
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if got, want := fetchReport(t, srv.URL, id2), localReportBytes(t, "fig3", baseOpts, 2); !bytes.Equal(got, want) {
		t.Fatalf("the next job's artifact differs from local -p 2:\n%s\nvs\n%s", got, want)
	}
	gate.mu.Lock()
	codes := gate.codes
	gate.mu.Unlock()
	if len(codes) == 0 || codes[0] != http.StatusNotFound {
		t.Fatalf("heartbeats after the cancellation were answered %v, want 404 first", codes)
	}
	logMu.Lock()
	gone := slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, id1+" is gone") })
	logMu.Unlock()
	if !gone {
		t.Fatalf("worker never dropped %s: %q", id1, logs)
	}
	if n := m.Snapshot().SpooledResults; n != 0 {
		t.Fatalf("%d results of a job that is gone were spooled", n)
	}
	if spooled, _ := filepath.Glob(filepath.Join(workDir, "*", "spool-shard-*")); len(spooled) != 0 {
		t.Fatalf("spool files of a job that is gone: %v", spooled)
	}
}

// TestOneWorkerLoop: two of the one worker loop, dist.RunWorker,
// pointed at the service, yield run reports byte-identical to local
// -p 2 — for a prefix plan, a DPOR plan that grows by waves, and a
// stride plan.
func TestOneWorkerLoop(t *testing.T) {
	cases := []struct {
		name, program string
		opts          search.Options
	}{
		{"fair-dfs", "fig3", baseOpts},
		{"dpor-sleepsets", "boundedbuffer", boundedbufferOpts},
		{"random-walk", "racy", search.Options{
			Fair: true, RandomWalk: true, MaxExecutions: 400, MaxSteps: 1000, Seed: 3, ContinueAfterViolation: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := localReportBytes(t, tc.program, tc.opts, 2)
			s, srv := startService(t, Config{Dir: t.TempDir()})
			id := submitJob(t, srv.URL, tc.program, tc.opts, 2)
			errs := make(chan error, 2)
			for i := 0; i < 2; i++ {
				go func() {
					errs <- dist.RunWorker(dist.WorkerConfig{URL: srv.URL, Lookup: testLookup, Retry: fastPolicy(uint64(i))})
				}()
			}
			waitState(t, srv.URL, id, StateDone)
			if got := fetchReport(t, srv.URL, id); !bytes.Equal(got, want) {
				t.Fatalf("artifact differs from local -p 2:\n%s\nvs\n%s", got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // they return on the closed service's "done"
				if err := <-errs; err != nil {
					t.Fatalf("worker: %v", err)
				}
			}
		})
	}
}

// TestJobsClosedServerSendsWorkersHome: a closed server answers every
// lease call "done" — a parked one the moment it closes — and a worker
// returns nil on that answer instead of riding out a restart that is
// not coming.
func TestJobsClosedServerSendsWorkersHome(t *testing.T) {
	s, srv := startService(t, Config{Dir: t.TempDir()})
	done := make(chan error, 1)
	go func() {
		done <- RunPoolWorker(PoolConfig{URL: srv.URL, Lookup: testLookup, Retry: fastPolicy(1)})
	}()
	// Let the worker park, then close under it.
	time.Sleep(50 * time.Millisecond)
	closed := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pool worker on a closing service: %v, want nil", err)
		}
		if d := time.Since(closed); d > dist.LeaseHold/2 {
			t.Fatalf("pool worker left %s after Close, want at once (its parked call woken)", d)
		}
	case <-time.After(dist.LeaseHold + 2*time.Second):
		t.Fatal("pool worker still polling a closed server")
	}

	var lr dist.LeaseResponse
	postProto(t, srv.URL+dist.PathLease, dist.LeaseRequest{WorkerID: "late"}, &lr)
	if lr.Status != dist.LeaseDone {
		t.Fatalf("lease on a closed server = %+v, want done", lr)
	}
}

// TestJobsSlotFreedAtCommit: a finished job gives up its MaxActive slot
// and its mount when its terminal record commits, whatever is still out
// on a lease of it. A ghost worker is granted j1's root unit and dies;
// j1 is cancelled under it. j2, queued behind MaxActive=1, must run to
// completion meanwhile. What the ghost's lease does hold up is Close —
// for DrainGrace, no longer.
func TestJobsSlotFreedAtCommit(t *testing.T) {
	const grace = 400 * time.Millisecond
	s, srv := startService(t, Config{Dir: t.TempDir(), MaxActive: 1, DrainGrace: grace})
	id1 := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	waitState(t, srv.URL, id1, StateRunning)
	var lr dist.LeaseResponse
	postProto(t, srv.URL+dist.PathLease, dist.LeaseRequest{WorkerID: "ghost"}, &lr)
	if lr.Status != dist.LeaseWork || lr.Job != id1 {
		t.Fatalf("ghost's lease = %+v, want work of %s", lr, id1)
	}
	id2 := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	if st := jobStatus(t, srv.URL, id2); st.State != StateQueued {
		t.Fatalf("j2 state = %q behind MaxActive=1, want queued", st.State)
	}
	resp, err := http.Post(srv.URL+PathJobs+"/"+id1+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, srv.URL, id1, StateCancelled)
	s.mu.Lock()
	mounted := s.jobs[id1].handler != nil
	s.mu.Unlock()
	if mounted {
		t.Fatal("j1 is still mounted after its terminal record committed")
	}

	stop := startPool(t, srv.URL, "", 1)
	waitState(t, srv.URL, id2, StateDone)
	stop()
	closing := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(closing); d < grace || d > grace+2*time.Second {
		t.Fatalf("Close took %s with one lease never returned, want the drain grace (%s)", d, grace)
	}
}
