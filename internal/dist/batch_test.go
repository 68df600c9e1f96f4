package dist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/dist/jobs"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// leaseWave drives a DPOR search by hand up to its first real wave: it
// leases and runs the root unit, posts it to the job at job, and leases
// again — one call that must grant every child unit the root's merge
// spawned.
func leaseWave(t *testing.T, lease func(workerID string) []dist.Grant, job string) (workerID string, wave []dist.Grant) {
	t.Helper()
	workerID = "by-hand"
	root := lease(workerID)
	if len(root) != 1 || root[0].Shard.Unit == nil {
		t.Fatalf("first lease of a DPOR plan: %+v, want the single root unit", root)
	}
	var rr dist.ResultResponse
	postJSON(t, job+dist.PathResult, oneResult(workerID, root[0], search.RunShard(racyIncrement, dporOpts, root[0].Shard, nil)), &rr)
	if !rr.Accepted[0] {
		t.Fatal("root unit not accepted")
	}
	wave = lease(workerID)
	if len(wave) < 2 {
		t.Fatalf("second lease granted %d units; the fixture needs a wave of at least 2", len(wave))
	}
	for i, g := range wave {
		if g.Shard.Unit == nil || (i > 0 && g.Shard.Index <= wave[i-1].Shard.Index) {
			t.Fatalf("wave is not DPOR units in plan order: %+v", wave)
		}
	}
	return workerID, wave
}

// runWave runs every unit of a wave and returns the batch a worker
// would post.
func runWave(workerID string, wave []dist.Grant) dist.ResultRequest {
	req := dist.ResultRequest{WorkerID: workerID}
	for _, g := range wave {
		req.Results = append(req.Results, dist.ShardResult{
			LeaseID: g.LeaseID, Shard: g.Shard.Index,
			Report: search.RunShard(racyIncrement, dporOpts, g.Shard, nil),
		})
	}
	return req
}

// requireSequential requires got to be the sequential DPOR run's
// report, byte for byte.
func requireSequential(t *testing.T, got *search.Report) {
	t.Helper()
	want := search.Explore(racyIncrement, dporOpts)
	if w, g := runReportBytes(t, want, "racy", dporOpts), runReportBytes(t, got, "racy", dporOpts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical:\n%s\nvs\n%s", w, g)
	}
}

// TestDistBatchLeaseLifetime: every lease of a batch lives and dies
// with its worker's heartbeats, started or not. While the worker
// heartbeats, none of the wave expires — the units still waiting their
// turn included; once it goes silent, every shard of the batch requeues
// (and goes to another worker in one call).
func TestDistBatchLeaseLifetime(t *testing.T) {
	const ttl = 300 * time.Millisecond
	m := &obs.Metrics{}
	s := startJob(t, jobs.Config{LeaseTTL: ttl, Metrics: m}, "racy", dporOpts)
	lease := func(w string) []dist.Grant { return s.leaseBatch(t, w) }
	worker, wave := leaseWave(t, lease, s.job)
	ids := make([]string, len(wave))
	for i, g := range wave {
		ids[i] = g.LeaseID
	}

	// Two TTLs of heartbeats: nothing of the batch may lapse.
	for end := time.Now().Add(2 * ttl); time.Now().Before(end); time.Sleep(ttl / 4) {
		var hb dist.HeartbeatResponse
		postJSON(t, s.job+dist.PathHeartbeat, dist.HeartbeatRequest{WorkerID: worker, LeaseIDs: ids}, &hb)
		if len(hb.Cancelled) != 0 {
			t.Fatalf("heartbeat cancelled %v of a live batch", hb.Cancelled)
		}
	}
	if n := m.Snapshot().WorkerRetries; n != 0 {
		t.Fatalf("%d leases expired in two TTLs of heartbeats, want none", n)
	}

	// Silence: the whole batch comes back, each lease expiring once.
	deadline := time.Now().Add(10 * ttl)
	for m.Snapshot().WorkerRetries < int64(len(wave)) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the batch's %d leases expired", m.Snapshot().WorkerRetries, len(wave))
		}
		time.Sleep(ttl / 4)
	}
	again := s.leaseBatch(t, "second")
	if len(again) != len(wave) {
		t.Fatalf("a second worker was granted %d of the %d requeued units", len(again), len(wave))
	}
	var rr dist.ResultResponse
	postJSON(t, s.job+dist.PathResult, runWave("second", again), &rr)

	got := s.finish(t, 1)
	requireSequential(t, got)
	expired := map[int64]bool{}
	for _, wf := range got.WorkerFailures {
		expired[wf.Unit] = true
	}
	for _, g := range wave {
		if !expired[int64(g.Shard.Index)] {
			t.Fatalf("no lease-expiry WorkerFailure for unit %d of the silent worker's batch: %+v", g.Shard.Index, got.WorkerFailures)
		}
	}
}

// TestDistBatchResultAppliedOnce: a result batch delivered twice under
// its idempotency key, and once more without one, reaches the merge
// once: the service commits each decision once (JobStatus.Decided
// counts the commits).
func TestDistBatchResultAppliedOnce(t *testing.T) {
	s := startJob(t, jobs.Config{}, "racy", dporOpts)
	worker, wave := leaseWave(t, func(w string) []dist.Grant { return s.leaseBatch(t, w) }, s.job)
	req := runWave(worker, wave)
	before := s.status(t).Decided

	var first, third dist.ResultResponse
	firstBytes := postJSONKey(t, s.job+dist.PathResult, "res-batch", req, &first)
	for i, ok := range first.Accepted {
		if !ok {
			t.Fatalf("item %d of the batch not accepted: %+v", i, first)
		}
	}
	if secondBytes := postJSONKey(t, s.job+dist.PathResult, "res-batch", req, nil); !bytes.Equal(firstBytes, secondBytes) {
		t.Fatalf("idempotent replay differs:\n%s\nvs\n%s", firstBytes, secondBytes)
	}
	postJSONKey(t, s.job+dist.PathResult, "", req, &third)
	for i, ok := range third.Accepted {
		if ok {
			t.Fatalf("keyless duplicate: item %d accepted twice", i)
		}
	}
	if got := s.status(t).Decided - before; got != len(wave) {
		t.Fatalf("%d decisions committed for a batch of %d delivered three times", got, len(wave))
	}
	requireSequential(t, s.finish(t, 1))
}

// TestDistBatchVeto: when the write-ahead hook refuses a batch, none of
// it reaches the merge, its shards go back to pending, the worker is
// told 503 — and the refusal is not cached, so the retry under the same
// idempotency key lands once the hook recovers. The jobs service vetoes
// only when its ledger is gone for good, so the hook here is the test's
// own: the coordinator is driven directly, granting through Lease as
// the service does and serving the job's routes from Handler.
func TestDistBatchVeto(t *testing.T) {
	var mu sync.Mutex
	veto := false
	var offered []int
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Prog: racyIncrement, Options: named("racy", dporOpts), RefParallelism: 2,
		OnShardDone: func(decided []search.ShardDoneRec) error {
			mu.Lock()
			defer mu.Unlock()
			if veto {
				return errors.New("ledger cannot commit")
			}
			for _, d := range decided {
				offered = append(offered, d.Shard)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	defer coord.Interrupt()
	lease := func(worker string) []dist.Grant {
		data, status := coord.Lease(worker, "j", "")
		lr, err := dist.DecodeLease(data)
		if err != nil || status != dist.LeaseWork || len(lr.Grants) == 0 {
			t.Fatalf("lease: %s (%v), want work", data, err)
		}
		return lr.Grants
	}
	worker, wave := leaseWave(t, lease, srv.URL)
	req := runWave(worker, wave)
	// A failed item ahead of the completions: the veto must leave it
	// unprocessed too (no attempt charged for a batch that is retried).
	req.Results[0].Report, req.Results[0].Failure = nil, "panic: injected"
	body := wire(t, req)
	post := func() *http.Response {
		hreq, _ := http.NewRequest(http.MethodPost, srv.URL+dist.PathResult, bytes.NewReader(body))
		hreq.Header.Set("X-Idempotency-Key", "res-veto")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	mu.Lock()
	veto = true
	mu.Unlock()
	planned := coord.Planned()
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("vetoed batch answered %d, want 503", resp.StatusCode)
	}
	// No lease of the batch is left: a heartbeat of them is answered with
	// every one cancelled. Nothing merged: the plan has not grown.
	var hb dist.HeartbeatResponse
	ids := make([]string, len(wave))
	for i, g := range wave {
		ids[i] = g.LeaseID
	}
	postJSON(t, srv.URL+dist.PathHeartbeat, dist.HeartbeatRequest{WorkerID: worker, LeaseIDs: ids}, &hb)
	if len(hb.Cancelled) != len(wave) || coord.Planned() != planned {
		t.Fatalf("after a veto: %d of the batch's %d leases cancelled, plan %d shards (was %d); want every lease gone and nothing merged",
			len(hb.Cancelled), len(wave), coord.Planned(), planned)
	}

	mu.Lock()
	veto = false
	mu.Unlock()
	resp = post()
	var rr dist.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("retried batch: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	for i, ok := range rr.Accepted {
		if !ok {
			t.Fatalf("retried batch: item %d not accepted: %+v", i, rr)
		}
	}
	mu.Lock()
	if len(offered) != len(wave) { // root + the wave's completions
		t.Fatalf("hook committed %v; want the root and the %d completions of the retried batch, once", offered, len(wave)-1)
	}
	mu.Unlock()

	// The rest of the search, by hand: a worker's loop of lease, run,
	// post.
	for {
		data, status := coord.Lease("finisher", "j", "")
		if status == dist.LeaseDone {
			break
		}
		lr, err := dist.DecodeLease(data)
		if err != nil || status != dist.LeaseWork {
			t.Fatalf("finishing lease: %s (%v)", data, err)
		}
		var rr dist.ResultResponse
		postJSON(t, srv.URL+dist.PathResult, runWave("finisher", lr.Grants), &rr)
	}
	got := coord.Wait()
	requireSequential(t, got)
	// The failed item is recorded once: the vetoed delivery left no
	// trace, and the retry, under a lease the veto dropped, charged
	// nothing.
	failed := 0
	for _, wf := range got.WorkerFailures {
		if wf.Unit == int64(wave[0].Shard.Index) {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("the batch's failed item was recorded %d times, want once: %+v", failed, got.WorkerFailures)
	}
}
