package dist_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/dist/jobs"
	"fairmc/internal/dist/transport"
	"fairmc/internal/faultinject"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// fastPolicy keeps chaos tests quick: small backoffs, few attempts.
func fastPolicy(seed uint64) transport.Policy {
	return transport.Policy{
		MaxAttempts: 4,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Multiplier:  2,
		Seed:        seed,
	}
}

// TestDistChaosByteIdentical is the headline invariant: under injected
// drops, delays, duplicated deliveries, response resets, a mid-search
// partition, AND one worker killed mid-search, the merged run report is
// byte-identical to the fault-free local run — every fault is absorbed
// by retries, idempotency, requeues, and spooling, never by silently
// losing or double-counting work.
func TestDistChaosByteIdentical(t *testing.T) {
	opts := search.Options{
		Fair: true, ContextBound: -1, MaxSteps: 10000,
		ContinueAfterViolation: true, ConfirmRuns: 2,
	}
	s := startJob(t, jobs.Config{
		LeaseTTL: 500 * time.Millisecond,
		// Chaos causes benign lease expiries; don't let them exhaust the
		// shard attempt budget.
		MaxShardAttempts: 10,
	}, "racy", opts)

	const workers = 3
	scenario := faultinject.MustLookup(faultinject.ScenarioStandard)
	kill := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, workers)
	metrics := make([]*obs.Metrics, workers)
	injectors := make([]*faultinject.Injector, workers)
	for i := 0; i < workers; i++ {
		m := &obs.Metrics{}
		in := faultinject.New(uint64(100+i), scenario)
		in.OnFault = func(string) { m.DistFaultsInjected.Inc() }
		metrics[i] = m
		injectors[i] = in
		var stop chan struct{}
		if i == workers-1 {
			stop = kill // this one dies mid-search
		}
		wg.Add(1)
		go func(i int, stop chan struct{}) {
			defer wg.Done()
			errs[i] = dist.RunWorker(dist.WorkerConfig{
				URL:         s.url,
				Lookup:      lookup,
				WorkDir:     t.TempDir(),
				Metrics:     m,
				Retry:       fastPolicy(uint64(i)),
				JoinTimeout: 10 * time.Second,
				Transport:   in.RoundTripper(nil),
				Stop:        stop,
			})
		}(i, stop)
	}
	time.AfterFunc(150*time.Millisecond, func() { close(kill) })
	got := s.report(t)
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d under chaos: %v", i, err)
		}
	}

	ref := opts
	ref.Parallelism = 2
	want := search.Explore(racyIncrement, ref)
	// Whether a lease outlives a loaded machine is wall-clock luck, and
	// an expiry is an operational record, not part of the determinism
	// contract (the run report compared below leaves it out). What the
	// contract does promise: expiries only requeue — no shard is given
	// up on, and no worker crashed.
	gotN := normalize(got)
	for _, wf := range gotN.WorkerFailures {
		if !strings.HasPrefix(wf.Panic, "lease expired") {
			t.Errorf("worker failure other than a lease expiry: %+v", wf)
		}
	}
	gotN.WorkerFailures = nil
	if got.Skipped != 0 {
		t.Errorf("%d shard(s) abandoned under chaos", got.Skipped)
	}
	if !reflect.DeepEqual(normalize(want), gotN) {
		t.Fatalf("chaotic distributed report differs from local -p 2:\n%+v\nvs\n%+v", want, got)
	}
	if w, g := runReportBytes(t, want, "racy", opts), runReportBytes(t, got, "racy", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical under chaos:\n%s\nvs\n%s", w, g)
	}

	// Every recovery must be visible in obs metrics: the injectors
	// recorded their faults, and terminal faults forced retries.
	var faults, retries, terminal int64
	for i := range metrics {
		snap := metrics[i].Snapshot()
		faults += snap.DistFaultsInjected
		retries += snap.DistRetries
		counts := injectors[i].Counts()
		terminal += counts[faultinject.KindDrop] + counts[faultinject.KindPartition] + counts[faultinject.KindReset]
	}
	if faults == 0 {
		t.Fatal("chaos run injected no faults — the scenario did not exercise anything")
	}
	if terminal > 0 && retries == 0 {
		t.Fatalf("injected %d terminal faults but recorded 0 retries", terminal)
	}
	t.Logf("chaos: %d faults injected, %d retries", faults, retries)
}

// postJSONKey is postJSON with an idempotency key header, returning the
// raw response bytes for replay comparison.
func postJSONKey(t *testing.T, url, key string, in, out any) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(wire(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(transport.IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		unwire(t, buf.Bytes(), out)
	}
	return buf.Bytes()
}

// TestDistDuplicateResultPost: a retried (same idempotency key) and a
// blind (no key, late) duplicate of an accepted result both leave the
// merged report unchanged.
func TestDistDuplicateResultPost(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	s := startJob(t, jobs.Config{}, "fig3", opts)

	lr := s.leaseWork(t, "by-hand")
	rep := search.RunShard(fig3, opts, lr.Shard, nil)
	req := oneResult("by-hand", lr, rep)
	key := "res-test-dup"

	var first dist.ResultResponse
	firstBytes := postJSONKey(t, s.job+dist.PathResult, key, req, &first)
	if !first.Accepted[0] {
		t.Fatal("first result not accepted")
	}
	// Retried submission with the same key: the exact original
	// acknowledgement is replayed, the shard is not re-processed.
	var second dist.ResultResponse
	secondBytes := postJSONKey(t, s.job+dist.PathResult, key, req, &second)
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatalf("idempotent replay differs:\n%s\nvs\n%s", firstBytes, secondBytes)
	}
	// A keyless duplicate (e.g. from a worker running an older build)
	// hits the late-result path: rejected, not merged twice.
	var third dist.ResultResponse
	postJSONKey(t, s.job+dist.PathResult, "", req, &third)
	if third.Accepted[0] {
		t.Fatal("keyless duplicate of a decided shard was accepted")
	}

	got := s.finish(t, 1)
	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report changed after duplicate result posts:\n%s\nvs\n%s", w, g)
	}
}

// TestDistLateResultAfterRequeue: a worker's lease expires, the shard
// is requeued and completed elsewhere, and THEN the original worker's
// result arrives — it must be rejected and the report unchanged.
func TestDistLateResultAfterRequeue(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	m := &obs.Metrics{}
	s := startJob(t, jobs.Config{LeaseTTL: 300 * time.Millisecond, Metrics: m}, "fig3", opts)

	// Doomed worker leases a shard and goes silent.
	lr := s.leaseWork(t, "doomed")
	lateRep := search.RunShard(fig3, opts, lr.Shard, nil)

	// Its lease expires and the shard requeues; a healthy worker, by
	// hand, leases on until it is granted that shard and completes it —
	// while the job still has shards to run.
	for m.Snapshot().WorkerRetries == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	for {
		g := s.leaseWork(t, "healthy")
		var rr dist.ResultResponse
		postJSON(t, s.job+dist.PathResult, oneResult("healthy", g, search.RunShard(fig3, opts, g.Shard, nil)), &rr)
		if g.Shard.Index == lr.Shard.Index {
			break
		}
	}
	if st := s.status(t); st.State != jobs.StateRunning {
		t.Fatalf("job %s after the requeued shard completed: %+v, want running (the fixture changed)", s.id, st)
	}

	// The doomed worker finally posts its result: too late.
	var rr dist.ResultResponse
	postJSON(t, s.job+dist.PathResult, oneResult("doomed", lr, lateRep), &rr)
	if rr.Accepted[0] {
		t.Fatal("late result accepted after the shard was decided elsewhere")
	}
	got := s.finish(t, 1)

	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report changed by a late result:\n%s\nvs\n%s", w, g)
	}
}

// TestDistStaleWorkerID: a worker keeps using its pre-restart identity
// against a second service incarnation over the same ledger, whose
// coordinator resumes the recorded plan (Prior). Its stale leases are
// cancelled, fresh leases are granted, and the search completes
// unchanged.
func TestDistStaleWorkerID(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	cfg := jobs.Config{Dir: t.TempDir()}
	a := startJob(t, cfg, "fig3", opts)
	const worker = "outlives-a"
	lr := a.leaseWork(t, worker)
	a.Close()

	b := startJob(t, cfg, "fig3", opts)
	// The stale worker heartbeats with its A-era identity and lease:
	// the resumed coordinator cancels the unknown lease instead of
	// crashing or honoring it.
	var hb dist.HeartbeatResponse
	postJSON(t, b.job+dist.PathHeartbeat, dist.HeartbeatRequest{
		WorkerID: worker, LeaseIDs: []string{lr.LeaseID},
	}, &hb)
	if len(hb.Cancelled) != 1 || hb.Cancelled[0] != lr.LeaseID {
		t.Fatalf("stale lease not cancelled: %+v", hb)
	}
	// It can still lease fresh work under the same worker ID — and B's
	// lease names are its own: the worker builds its idempotency keys
	// from them, and a key B had already answered under would have its
	// result replayed instead of applied.
	lr2 := b.leaseWork(t, worker)
	if lr2.LeaseID == lr.LeaseID {
		t.Fatalf("second incarnation reissued lease id %s", lr.LeaseID)
	}
	rep := search.RunShard(fig3, opts, lr2.Shard, nil)
	var rr dist.ResultResponse
	postJSON(t, b.job+dist.PathResult, oneResult(worker, lr2, rep), &rr)
	if !rr.Accepted[0] {
		t.Fatal("stale-ID result not accepted")
	}

	got := b.finish(t, 1)
	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report changed under a stale worker ID:\n%s\nvs\n%s", w, g)
	}
}

// TestDistHeartbeatMetricsDedup: a duplicated heartbeat (same
// idempotency key) merges its telemetry delta exactly once.
func TestDistHeartbeatMetricsDedup(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	m := &obs.Metrics{}
	s := startJob(t, jobs.Config{Metrics: m}, "fig3", opts)

	delta := obs.Snapshot{Executions: 5}
	req := dist.HeartbeatRequest{WorkerID: "w-test", Metrics: &delta}
	postJSONKey(t, s.job+dist.PathHeartbeat, "hb-w-test-1", req, nil)
	postJSONKey(t, s.job+dist.PathHeartbeat, "hb-w-test-1", req, nil)
	if got := m.Snapshot().Executions; got != 5 {
		t.Fatalf("duplicated heartbeat merged delta %d times (executions = %d, want 5)", got/5, got)
	}
	// A new key is a new delta.
	postJSONKey(t, s.job+dist.PathHeartbeat, "hb-w-test-2", req, nil)
	if got := m.Snapshot().Executions; got != 10 {
		t.Fatalf("fresh heartbeat not merged (executions = %d, want 10)", got)
	}
}

// resultGate is a RoundTripper that severs result uploads, simulating a
// partition that hits exactly the submission path.
type resultGate struct {
	mu      sync.Mutex
	blocked bool
}

func (g *resultGate) setBlocked(b bool) {
	g.mu.Lock()
	g.blocked = b
	g.mu.Unlock()
}

func (g *resultGate) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	blocked := g.blocked
	g.mu.Unlock()
	if blocked && strings.HasSuffix(req.URL.Path, dist.PathResult) {
		return nil, errors.New("resultGate: link severed")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistSpoolReplay: a worker that cannot upload results spools them
// to its workdir; after the service restarts, a worker sharing the
// workdir replays the spool and the search completes WITHOUT re-running
// any execution — a restart loses zero completed work.
func TestDistSpoolReplay(t *testing.T) {
	workDir := t.TempDir()
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	cfg := jobs.Config{
		Dir:      t.TempDir(),
		LeaseTTL: 5 * time.Second, // long: completed-but-unposted shards must not requeue mid-test
	}
	a := startJob(t, cfg, "fig3", opts)
	shardCount := a.status(t).Shards

	gate := &resultGate{}
	gate.setBlocked(true)
	mA := &obs.Metrics{}
	stopA := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(dist.WorkerConfig{
			URL:       a.url,
			Lookup:    lookup,
			WorkDir:   workDir,
			Metrics:   mA,
			Retry:     fastPolicy(1),
			Transport: gate,
			Stop:      stopA,
		})
	}()

	// Wait until every shard's result has been spooled.
	deadline := time.After(15 * time.Second)
	for {
		if int(mA.Snapshot().SpooledResults) >= shardCount {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("spooled %d/%d shards before timeout", mA.Snapshot().SpooledResults, shardCount)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stopA)
	if err := <-done; err != nil {
		t.Fatalf("spooling worker: %v", err)
	}
	a.Close()

	// The restarted service (same job) and a fresh worker sharing the
	// workdir: everything is satisfied from the spool.
	b := startJob(t, cfg, "fig3", opts)
	mB := &obs.Metrics{}
	done = make(chan error, 1)
	go func() {
		done <- dist.RunWorker(dist.WorkerConfig{
			URL: b.url, Lookup: lookup, WorkDir: workDir, Metrics: mB,
			Retry: fastPolicy(2),
		})
	}()
	got := b.report(t)
	b.Close()
	if err := <-done; err != nil {
		t.Fatalf("replaying worker: %v", err)
	}

	if execs := mB.Snapshot().Executions; execs != 0 {
		t.Fatalf("replaying worker re-ran %d executions; spool replay should cover every shard", execs)
	}
	if left, _ := filepath.Glob(filepath.Join(workDir, b.id, "spool-shard-*.rec")); len(left) != 0 {
		t.Fatalf("replayed spool entries not cleaned up: %v", left)
	}
	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatalf("spool-replayed report differs from local -p 2:\n%+v\nvs\n%+v", want, got)
	}
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical after spool replay:\n%s\nvs\n%s", w, g)
	}
}

// TestDistStaleLeaseFailureChargesNothing: a failure posted under a
// lease that already expired is history, not a second failed attempt.
// The expiry charged the shard once and it went out again on a new
// lease; the late failure must not charge it again, exclude anyone,
// requeue it under the live lease, or let it be granted twice.
func TestDistStaleLeaseFailureChargesNothing(t *testing.T) {
	m := &obs.Metrics{}
	s := startJob(t, jobs.Config{LeaseTTL: time.Second, MaxShardAttempts: 2, Metrics: m}, "racy", dporOpts)
	a := s.leaseWork(t, "a") // the root unit: the only shard planned
	// B's calls park until A's lease expires and the root requeues.
	var lr dist.LeaseResponse
	for lr.Status != dist.LeaseWork {
		postJSON(t, s.url+dist.PathLease, dist.LeaseRequest{WorkerID: "b"}, &lr)
	}
	b := lr.Grants[0]
	if b.Shard.Index != a.Shard.Index || m.Snapshot().WorkerRetries != 1 {
		t.Fatalf("b was granted shard %d after %d expiries, want A's shard %d after one", b.Shard.Index, m.Snapshot().WorkerRetries, a.Shard.Index)
	}

	var rr dist.ResultResponse
	postJSON(t, s.job+dist.PathResult, dist.ResultRequest{WorkerID: "a", Results: []dist.ShardResult{
		{LeaseID: a.LeaseID, Shard: a.Shard.Index, Failure: "panic: a crashed after its lease expired"},
	}}, &rr)
	if n := m.Snapshot().WorkerRetries; n != 1 {
		t.Fatalf("the shard was charged %d times, want once (the expiry)", n)
	}
	var hb dist.HeartbeatResponse
	postJSON(t, s.job+dist.PathHeartbeat, dist.HeartbeatRequest{WorkerID: "b", LeaseIDs: []string{b.LeaseID}}, &hb)
	if len(hb.Cancelled) != 0 {
		t.Fatalf("b's live lease was cancelled: %+v", hb)
	}
	// Nothing is grantable while B holds the root: a third worker's
	// call is held, and hung up on, without a grant.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, s.url+dist.PathLease, bytes.NewReader(wire(t, dist.LeaseRequest{WorkerID: "c"})))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lr, _ := dist.DecodeLease(data)
		if lr.Status == dist.LeaseWork {
			t.Fatalf("the root was granted a second time, to c: %+v", lr)
		}
	}

	postJSON(t, s.job+dist.PathResult, oneResult("b", b, search.RunShard(racyIncrement, dporOpts, b.Shard, nil)), &rr)
	if !rr.Accepted[0] {
		t.Fatal("b's result under its live lease was not accepted")
	}
	got := s.finish(t, 1)
	if got.Skipped != 0 {
		t.Fatalf("%d shard(s) abandoned", got.Skipped)
	}
	want := search.Explore(racyIncrement, dporOpts)
	if w, g := runReportBytes(t, want, "racy", dporOpts), runReportBytes(t, got, "racy", dporOpts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical:\n%s\nvs\n%s", w, g)
	}
}
