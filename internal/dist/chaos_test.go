package dist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fairmc/internal/dist"
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
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog:           racyIncrement,
		Program:        "racy",
		Options:        opts,
		RefParallelism: 2,
		LeaseTTL:       500 * time.Millisecond,
		// Chaos causes benign lease expiries; don't let them exhaust the
		// shard attempt budget.
		MaxShardAttempts: 10,
	})

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
				URL:         srv.URL,
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
	got := coord.Wait()
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
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDistDuplicateResultPost: a retried (same idempotency key) and a
// blind (no key, late) duplicate of an accepted result both leave the
// merged report unchanged.
func TestDistDuplicateResultPost(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
	})

	lr := leaseWork(t, srv.URL, "by-hand")
	rep := search.RunShard(fig3, opts, lr.Shard, nil)
	req := oneResult("by-hand", lr, rep)
	key := "res-test-dup"

	var first dist.ResultResponse
	firstBytes := postJSONKey(t, srv.URL+dist.PathResult, key, req, &first)
	if !first.Accepted[0] {
		t.Fatal("first result not accepted")
	}
	// Retried submission with the same key: the exact original
	// acknowledgement is replayed, the shard is not re-processed.
	var second dist.ResultResponse
	secondBytes := postJSONKey(t, srv.URL+dist.PathResult, key, req, &second)
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatalf("idempotent replay differs:\n%s\nvs\n%s", firstBytes, secondBytes)
	}
	// A keyless duplicate (e.g. from a worker running an older build)
	// hits the late-result path: rejected, not merged twice.
	var third dist.ResultResponse
	postJSONKey(t, srv.URL+dist.PathResult, "", req, &third)
	if third.Accepted[0] {
		t.Fatal("keyless duplicate of a decided shard was accepted")
	}

	runWorkers(t, srv.URL, 1)
	got := coord.Wait()
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
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
		LeaseTTL: 300 * time.Millisecond,
	})

	// Doomed worker leases a shard and goes silent.
	lr := leaseWork(t, srv.URL, "doomed")
	lateRep := search.RunShard(fig3, opts, lr.Shard, nil)

	// A healthy worker completes the whole search (the lease expires
	// and the shard requeues to it).
	runWorkers(t, srv.URL, 1)
	got := coord.Wait()

	// The doomed worker finally posts its result: too late.
	var rr dist.ResultResponse
	postJSON(t, srv.URL+dist.PathResult, oneResult("doomed", lr, lateRep), &rr)
	if rr.Accepted[0] {
		t.Fatal("late result accepted after the shard was decided elsewhere")
	}

	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report changed by a late result:\n%s\nvs\n%s", w, g)
	}
}

// TestDistStaleWorkerID: a worker keeps using its pre-restart identity
// against a second coordinator incarnation over the same plan (Prior,
// as a restarted jobs service builds it). Its stale leases are
// cancelled, fresh leases are granted, and the search completes
// unchanged.
func TestDistStaleWorkerID(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	cfg := dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
	}
	coordA, srvA := startCoordinator(t, cfg)
	const worker = "outlives-a"
	lr := leaseWork(t, srvA.URL, worker)
	coordA.Interrupt()
	coordA.Wait()
	srvA.Close()

	plan, err := search.PlanShards(fig3, opts, 2) // the plan A made, as its owner would have recorded it
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prior = &dist.Prior{Plan: plan}
	coordB, srvB := startCoordinator(t, cfg)
	// The stale worker heartbeats with its A-era identity and lease:
	// the resumed coordinator cancels the unknown lease instead of
	// crashing or honoring it.
	var hb dist.HeartbeatResponse
	postJSON(t, srvB.URL+dist.PathHeartbeat, dist.HeartbeatRequest{
		WorkerID: worker, LeaseIDs: []string{lr.LeaseID},
	}, &hb)
	if len(hb.Cancelled) != 1 || hb.Cancelled[0] != lr.LeaseID {
		t.Fatalf("stale lease not cancelled: %+v", hb)
	}
	// It can still lease fresh work under the same worker ID — and B's
	// lease names are its own: the worker builds its idempotency keys
	// from them, and a key B had already answered under would have its
	// result replayed instead of applied.
	lr2 := leaseWork(t, srvB.URL, worker)
	if lr2.LeaseID == lr.LeaseID {
		t.Fatalf("second incarnation reissued lease id %s", lr.LeaseID)
	}
	rep := search.RunShard(fig3, opts, lr2.Shard, nil)
	var rr dist.ResultResponse
	postJSON(t, srvB.URL+dist.PathResult, oneResult(worker, lr2, rep), &rr)
	if !rr.Accepted[0] {
		t.Fatal("stale-ID result not accepted")
	}

	runWorkers(t, srvB.URL, 1)
	got := coordB.Wait()
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
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
		Metrics: m,
	})
	defer coord.Interrupt()

	delta := obs.Snapshot{Executions: 5}
	req := dist.HeartbeatRequest{WorkerID: "w-test", Metrics: &delta}
	postJSONKey(t, srv.URL+dist.PathHeartbeat, "hb-w-test-1", req, nil)
	postJSONKey(t, srv.URL+dist.PathHeartbeat, "hb-w-test-1", req, nil)
	if got := m.Snapshot().Executions; got != 5 {
		t.Fatalf("duplicated heartbeat merged delta %d times (executions = %d, want 5)", got/5, got)
	}
	// A new key is a new delta.
	postJSONKey(t, srv.URL+dist.PathHeartbeat, "hb-w-test-2", req, nil)
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
	if blocked && req.URL.Path == dist.PathResult {
		return nil, errors.New("resultGate: link severed")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistSpoolReplay: a worker that cannot upload results spools them
// to its workdir; after the coordinator is replaced, a worker sharing
// the workdir replays the spool and the search completes WITHOUT
// re-running any execution — a coordinator restart loses zero completed
// work.
func TestDistSpoolReplay(t *testing.T) {
	workDir := t.TempDir()
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	cfg := dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
		LeaseTTL: 5 * time.Second, // long: completed-but-unposted shards must not requeue mid-test
	}
	coordA, srvA := startCoordinator(t, cfg)
	shardCount := coordStatus(t, srvA.URL).Shards

	gate := &resultGate{}
	gate.setBlocked(true)
	mA := &obs.Metrics{}
	stopA := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(dist.WorkerConfig{
			URL:       srvA.URL,
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
	coordA.Interrupt()
	coordA.Wait()
	srvA.Close()

	// A fresh coordinator (same search) and a fresh worker sharing the
	// workdir: everything is satisfied from the spool.
	coordB, srvB := startCoordinator(t, cfg)
	mB := &obs.Metrics{}
	if err := dist.RunWorker(dist.WorkerConfig{
		URL: srvB.URL, Lookup: lookup, WorkDir: workDir, Metrics: mB,
		Retry: fastPolicy(2),
	}); err != nil {
		t.Fatalf("replaying worker: %v", err)
	}
	got := coordB.Wait()

	if execs := mB.Snapshot().Executions; execs != 0 {
		t.Fatalf("replaying worker re-ran %d executions; spool replay should cover every shard", execs)
	}
	if left, _ := filepath.Glob(filepath.Join(workDir, "spool-shard-*.json")); len(left) != 0 {
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

// blockingWriter lets the test hold one request inside a handler so a
// second request overflows MaxInflight.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return len(p), nil
}

// TestDistLoadShedding: beyond MaxInflight the coordinator answers 429
// with Retry-After instead of queueing, and counts the refusal.
func TestDistLoadShedding(t *testing.T) {
	bw := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	m := &obs.Metrics{}
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
		MaxInflight: 1,
		Metrics:     m,
		EventWriter: bw,
	})
	defer coord.Interrupt()
	defer close(bw.release)

	// Occupy the only slot with an event post that blocks in the
	// handler...
	go http.Post(srv.URL+dist.PathEvents, "application/jsonl", bytes.NewReader([]byte("{}\n")))
	<-bw.entered

	// ...then any further request must be shed.
	resp, err := http.Get(srv.URL + dist.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if m.Snapshot().ShedRequests == 0 {
		t.Fatal("shedRequests metric not incremented")
	}
}
