package jobs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/search"
)

// malformedDporReport is rep, the report of DPOR unit sh, made to claim
// a continuation far longer in ContIdx than in Cont, with a fresh
// reversal proposed at the last step: a child whose schedule the report
// does not hold.
func malformedDporReport(sh search.Shard, rep *search.Report) *search.Report {
	bad, d := *rep, *rep.Dpor
	const extra = 256
	pos := len(sh.Unit.Path) + len(d.ContIdx) + extra - 1
	d.ContIdx = append(slices.Clone(d.ContIdx), make([]int, extra)...)
	d.Nodes = append(slices.Clone(d.Nodes), search.DporNodeRec{
		Pos:   pos,
		Alts:  []engine.Alt{{Tid: 0}, {Tid: 1}},
		Moves: []por.Move{{Tid: 0}, {Tid: 1}},
	})
	d.Proposals = append(slices.Clone(d.Proposals), por.Proposal{Pos: pos, Idx: 1})
	bad.Dpor = &d
	return &bad
}

// TestJobsMalformedDporReportRefused: a posted report the merge would
// choke on is checked like a replayed one and refused — charged to its
// shard as a failed attempt, never committed or merged — and the job
// still finishes with the local -p 2 report.
func TestJobsMalformedDporReportRefused(t *testing.T) {
	s, srv := startService(t, Config{Dir: t.TempDir()})
	id := submitJob(t, srv.URL, "boundedbuffer", boundedbufferOpts, 2)
	waitState(t, srv.URL, id, StateRunning)
	var lr dist.LeaseResponse
	postProto(t, srv.URL+dist.PathLease, dist.LeaseRequest{WorkerID: "by-hand"}, &lr)
	if lr.Status != dist.LeaseWork || len(lr.Grants) != 1 {
		t.Fatalf("first lease of a DPOR job: %+v, want its root unit", lr)
	}
	g := lr.Grants[0]
	rep := malformedDporReport(g.Shard, search.RunShard(testProgs["boundedbuffer"], boundedbufferOpts, g.Shard, nil))
	var rr dist.ResultResponse
	postProto(t, srv.URL+lr.Path+dist.PathResult, dist.ResultRequest{WorkerID: "by-hand", Results: []dist.ShardResult{
		{LeaseID: g.LeaseID, Shard: g.Shard.Index, Report: rep},
	}}, &rr)

	startPool(t, srv.URL, "", 2)
	waitState(t, srv.URL, id, StateDone)
	if got, want := fetchReport(t, srv.URL, id), localReportBytes(t, "boundedbuffer", boundedbufferOpts, 2); !bytes.Equal(got, want) {
		t.Fatalf("artifact differs from local -p 2:\n%s\nvs\n%s", got, want)
	}
	_, final := s.Wait(id)
	refused := slices.ContainsFunc(final.WorkerFailures, func(wf search.WorkerFailure) bool {
		return wf.Unit == int64(g.Shard.Index) && wf.Attempt == 1 && strings.Contains(wf.Panic, "report refused")
	})
	if !refused {
		t.Fatalf("the malformed report was not charged as a refused attempt: %+v", final.WorkerFailures)
	}
}

// fuzzJobs are FuzzWorkerRoutes' searches, one per service: a prefix
// plan and a DPOR plan.
var fuzzJobs = []struct {
	program string
	opts    search.Options
}{
	{"fig3", baseOpts},
	{"boundedbuffer", boundedbufferOpts},
}

// fuzzRoutes are the routes a worker calls: the service's lease
// endpoint, then the job's own.
var fuzzRoutes = []string{dist.PathLease, dist.PathHeartbeat, dist.PathResult, dist.PathEvents}

// routeOf is the index in fuzzRoutes of the route path calls.
func routeOf(path string) uint8 {
	for i := len(fuzzRoutes) - 1; i > 0; i-- {
		if strings.HasSuffix(path, fuzzRoutes[i]) {
			return uint8(i)
		}
	}
	return 0
}

// capturingTransport records the bodies a worker sends, by route.
type capturingTransport struct {
	mu     sync.Mutex
	bodies map[uint8][][]byte
}

func (c *capturingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		c.mu.Lock()
		r := routeOf(req.URL.Path)
		if len(c.bodies[r]) < 3 {
			c.bodies[r] = append(c.bodies[r], body)
		}
		c.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// fuzzService starts a service on a new ledger with program as its one
// job, and returns it once the job is mounted.
func fuzzService(t *testing.T, program string, opts search.Options) (*Server, string) {
	t.Helper()
	s, err := New(Config{
		Dir: t.TempDir(), Lookup: testLookup, Metrics: obs.NewMetrics(),
		DrainGrace: time.Millisecond, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	id, err := s.Submit(SubmitRequest{Spec: named(program, opts), RefParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		s.mu.Lock()
		j, wake := s.jobs[id], s.wake
		mounted := j.handler != nil || j.terminal()
		s.mu.Unlock()
		if mounted {
			return s, id
		}
		<-wake
	}
}

// FuzzWorkerRoutes posts arbitrary bodies to the routes a worker calls
// — the lease endpoint and a mounted job's heartbeat, result and events
// — of a one-job service, straight into its handler, so a panic fails
// the target. Whatever arrives, the service never panics or answers
// 500, and the job's status still answers. The seeds are the bodies real
// workers sent, captured here — the lease requests, heartbeats and
// events as JSON, the result posts as the binary frames their encoder
// wrote — and a DPOR report the merge would choke on.
func FuzzWorkerRoutes(f *testing.F) {
	for job, fj := range fuzzJobs {
		s, err := New(Config{Dir: f.TempDir(), Lookup: testLookup, Logf: func(string, ...any) {}})
		if err != nil {
			f.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		id, err := s.Submit(SubmitRequest{Spec: named(fj.program, fj.opts), RefParallelism: 2})
		if err != nil {
			f.Fatal(err)
		}
		tr := &capturingTransport{bodies: map[uint8][][]byte{}}
		done := make(chan error, 1)
		go func() {
			done <- dist.RunWorker(dist.WorkerConfig{URL: srv.URL, Lookup: testLookup, Transport: tr})
		}()
		st, _ := s.Wait(id)
		s.Close()
		srv.Close()
		if err := <-done; err != nil || st.State != StateDone {
			f.Fatalf("seed job %s: %+v, worker: %v", fj.program, st, err)
		}
		for route, bodies := range tr.bodies {
			for _, body := range bodies {
				f.Add(uint8(job), route, body)
			}
		}
	}
	hb, _ := json.Marshal(dist.HeartbeatRequest{WorkerID: "w", LeaseIDs: []string{"l1"}, Metrics: &obs.Snapshot{Executions: 1}})
	f.Add(uint8(0), uint8(1), hb)
	f.Add(uint8(1), uint8(3), []byte("{}\n"))
	root, _ := search.PlanShards(testProgs["boundedbuffer"], boundedbufferOpts, 2)
	sh := root.Shards[0]
	bad, _ := (&dist.ResultRequest{WorkerID: "w", Results: []dist.ShardResult{{
		Shard: 0, Report: malformedDporReport(sh, search.RunShard(testProgs["boundedbuffer"], boundedbufferOpts, sh, nil)),
	}}}).Encode(nil)
	f.Add(uint8(1), uint8(2), bad)

	f.Fuzz(func(t *testing.T, job, route uint8, body []byte) {
		fj := fuzzJobs[int(job)%len(fuzzJobs)]
		s, id := fuzzService(t, fj.program, fj.opts)
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		if path != dist.PathLease {
			path = PathJobPrefix + id + path
		}
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s answered 500: %s", path, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathJobs+"/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("job status after POST %s: HTTP %d %s", path, rec.Code, rec.Body)
		}
	})
}
