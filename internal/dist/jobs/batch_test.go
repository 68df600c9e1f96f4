package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"runtime"
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

// countingTransport counts the requests a pool worker sends to job
// coordinators (everything under /job/), by endpoint.
type countingTransport struct {
	mu     sync.Mutex
	counts map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if rest, ok := strings.CutPrefix(req.URL.Path, PathJobPrefix); ok {
		_, endpoint, _ := strings.Cut(rest, "/")
		c.mu.Lock()
		c.counts["/"+endpoint]++
		c.mu.Unlock()
	}
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
// served by one pool worker costs a few coordinator requests and ledger
// fsyncs per wave of the frontier, not per unit (234 requests and 120
// fsyncs when every unit was leased, posted and committed on its own).
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
	t.Logf("coordinator requests: %v; ledger fsyncs: %d; ledger appends: %d", tr.counts, syncs.Load(), m.Snapshot().LedgerAppends)
	tr.mu.Unlock()
	if n := tr.total(); n > 40 {
		t.Errorf("%d coordinator requests for one job, budget 40", n)
	}
	if n := syncs.Load(); n > 16 {
		t.Errorf("%d ledger fsyncs for one job, budget 16", n)
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

// TestJobsAssignLongPoll: an idle pool worker's assign call is held
// open and answered the moment a job mounts; with no submission it
// comes back "wait" within the hold; and parked calls do not count
// against MaxInflight.
func TestJobsAssignLongPoll(t *testing.T) {
	m := &obs.Metrics{}
	_, srv := startService(t, Config{Dir: t.TempDir(), Coordinator: dist.CoordinatorConfig{MaxInflight: 8}, Metrics: m})

	const parked = 200
	type answer struct {
		asn  AssignResponse
		code int
		at   time.Time
	}
	answers := make(chan answer, parked)
	tr := &http.Transport{MaxConnsPerHost: parked}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	ask := func() {
		var a answer
		resp, err := client.Get(srv.URL + PathAssign)
		if err == nil {
			a.code = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&a.asn)
			resp.Body.Close()
		}
		a.at = time.Now()
		answers <- a
	}

	// Nothing submitted: the call is held, then answered "wait".
	asked := time.Now()
	go ask()
	select {
	case a := <-answers:
		if a.code != http.StatusOK || a.asn.Status != AssignWait {
			t.Fatalf("idle assign: HTTP %d %+v, want wait", a.code, a.asn)
		}
		if held := a.at.Sub(asked); held < dist.LeaseHold/2 || held > dist.LeaseHold+time.Second {
			t.Fatalf("idle assign held %s, want about the hold (%s)", held, dist.LeaseHold)
		}
	case <-time.After(dist.LeaseHold + 2*time.Second):
		t.Fatal("idle assign call still open after the hold")
	}

	// 200 parked calls, MaxInflight 8: a submission still gets in, and
	// one parked call is sent to it the moment it mounts. One only: the
	// job's single grantable shard is spoken for until that worker has
	// leased it, and nobody here ever does — the rest run out their hold.
	for i := 0; i < parked; i++ {
		go ask()
	}
	time.Sleep(100 * time.Millisecond)
	id := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	for jobStatus(t, srv.URL, id).State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	mounted := time.Now()
	sent := 0
	for i := 0; i < parked; i++ {
		select {
		case a := <-answers:
			switch {
			case a.code != http.StatusOK:
				t.Fatalf("parked assign: HTTP %d", a.code)
			case i == 0:
				if a.asn.Status != AssignWork || a.asn.JobID != id {
					t.Fatalf("first parked assign answered %+v, want work on %s", a.asn, id)
				}
				if d := a.at.Sub(mounted); d > 50*time.Millisecond {
					t.Fatalf("first parked assign answered %s after the job was seen running, want within 50ms", d)
				}
			case a.asn.Status == AssignWork:
				sent++
			}
		case <-time.After(dist.LeaseHold + 2*time.Second):
			t.Fatalf("%d parked assign calls still open after the hold", parked-i)
		}
	}
	if sent > 1 { // a claim lapsing just as the last holds run out may admit one more
		t.Fatalf("%d more workers were sent after the one grantable shard had been spoken for", sent)
	}
	if shed := m.Snapshot().ShedRequests; shed != 0 {
		t.Fatalf("%d requests shed with %d assign calls parked and MaxInflight 8", shed, parked)
	}
}

// TestJobsAssignAnswersOnce: an assign answer is a claim. With one
// mounted job holding one grantable shard, the first call is sent to it
// at once and a second one parks — the shard is spoken for until the
// first caller leases it — so nothing may spend an assign call as a
// probe: it would send the next real caller to wait behind itself.
func TestJobsAssignAnswersOnce(t *testing.T) {
	_, srv := startService(t, Config{Dir: t.TempDir()})
	id := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	waitState(t, srv.URL, id, StateRunning)

	var asn AssignResponse
	resp, err := http.Get(srv.URL + PathAssign)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&asn)
	resp.Body.Close()
	if err != nil || asn.Status != AssignWork || asn.JobID != id {
		t.Fatalf("first assign = %+v (%v), want work on %s", asn, err, id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+PathAssign, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		json.NewDecoder(resp.Body).Decode(&asn)
		resp.Body.Close()
		t.Fatalf("second assign answered %+v while the job's one shard was claimed, want it parked", asn)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
}

// TestJobsClosedServerSendsWorkersHome: a closed server answers every
// assign call "closing" — a parked one the moment it closes — and a pool
// worker returns nil on that answer instead of riding out a restart that
// is not coming.
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

	var asn AssignResponse
	resp, err := http.Get(srv.URL + PathAssign)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&asn); err != nil || asn.Status != AssignClosing {
		t.Fatalf("assign on a closed server = %+v (%v), want closing", asn, err)
	}
}

// TestJobsSlotFreedAtCommit: a finished job gives up its MaxActive slot
// when its terminal record commits, not when its coordinator unmounts.
// A worker that joined j1 and died keeps j1 draining for the whole
// grace; j2, queued behind MaxActive=1, must run to completion
// meanwhile — and no worker may be sent back to the finished j1.
func TestJobsSlotFreedAtCommit(t *testing.T) {
	s, srv := startService(t, Config{Dir: t.TempDir(), MaxActive: 1, DrainGrace: 2 * time.Second})
	id1 := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	waitState(t, srv.URL, id1, StateRunning)
	postProto(t, srv.URL+PathJobPrefix+id1+dist.PathJoin, dist.JoinRequest{Capacity: 1}, &dist.JoinResponse{})
	id2 := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	if st := jobStatus(t, srv.URL, id2); st.State != StateQueued {
		t.Fatalf("j2 state = %q behind MaxActive=1, want queued", st.State)
	}

	startPool(t, srv.URL, "", 1)
	waitState(t, srv.URL, id1, StateDone)
	waitState(t, srv.URL, id2, StateDone)
	s.mu.Lock()
	draining := s.jobs[id1].handler != nil
	s.mu.Unlock()
	if !draining {
		t.Fatal("j1 unmounted before j2 finished: the test no longer shows the slot was freed at commit (was the ghost worker told?)")
	}
}
