package dist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// leaseWave drives a DPOR coordinator by hand up to its first real
// wave: it runs the root unit, and leases again — one call that must
// grant every child unit the root's merge spawned.
func leaseWave(t *testing.T, url string) (workerID string, wave []dist.Grant) {
	t.Helper()
	workerID = "by-hand"
	root := leaseBatch(t, url, workerID)
	if len(root) != 1 || root[0].Shard.Unit == nil {
		t.Fatalf("first lease of a DPOR plan: %+v, want the single root unit", root)
	}
	var rr dist.ResultResponse
	postJSON(t, url+dist.PathResult, oneResult(workerID, root[0], search.RunShard(racyIncrement, dporOpts, root[0].Shard, nil)), &rr)
	if !rr.Accepted[0] {
		t.Fatal("root unit not accepted")
	}
	wave = leaseBatch(t, url, workerID)
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

func coordStatus(t *testing.T, url string) dist.StatusResponse {
	t.Helper()
	resp, err := http.Get(url + dist.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st dist.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// finishAndCompare lets a healthy worker finish the search and requires
// the sequential DPOR run's report, byte for byte.
func finishAndCompare(t *testing.T, coord *dist.Coordinator, url string) *search.Report {
	t.Helper()
	runWorkers(t, url, 1)
	got := coord.Wait()
	want := search.Explore(racyIncrement, dporOpts)
	if w, g := runReportBytes(t, want, "racy", dporOpts), runReportBytes(t, got, "racy", dporOpts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical:\n%s\nvs\n%s", w, g)
	}
	return got
}

// TestDistBatchLeaseLifetime: every lease of a batch lives and dies
// with its worker's heartbeats, started or not. While the worker
// heartbeats, none of the wave expires — the units still waiting their
// turn included; once it goes silent, every shard of the batch requeues
// (and goes to another worker in one call).
func TestDistBatchLeaseLifetime(t *testing.T) {
	const ttl = 300 * time.Millisecond
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: racyIncrement, Options: named("racy", dporOpts), RefParallelism: 2,
		LeaseTTL: ttl,
	})
	worker, wave := leaseWave(t, srv.URL)
	ids := make([]string, len(wave))
	for i, g := range wave {
		ids[i] = g.LeaseID
	}

	// Two TTLs of heartbeats: nothing of the batch may lapse.
	for end := time.Now().Add(2 * ttl); time.Now().Before(end); time.Sleep(ttl / 4) {
		var hb dist.HeartbeatResponse
		postJSON(t, srv.URL+dist.PathHeartbeat, dist.HeartbeatRequest{WorkerID: worker, LeaseIDs: ids}, &hb)
		if len(hb.Cancelled) != 0 {
			t.Fatalf("heartbeat cancelled %v of a live batch", hb.Cancelled)
		}
	}
	if st := coordStatus(t, srv.URL); st.Leased != len(wave) {
		t.Fatalf("%d leases alive after two TTLs of heartbeats, want %d", st.Leased, len(wave))
	}

	// Silence: the whole batch comes back.
	deadline := time.Now().Add(10 * ttl)
	for coordStatus(t, srv.URL).Leased != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("batch never expired: %+v", coordStatus(t, srv.URL))
		}
		time.Sleep(ttl / 4)
	}
	again := leaseBatch(t, srv.URL, "second")
	if len(again) != len(wave) {
		t.Fatalf("a second worker was granted %d of the %d requeued units", len(again), len(wave))
	}
	var rr dist.ResultResponse
	postJSON(t, srv.URL+dist.PathResult, runWave("second", again), &rr)

	got := finishAndCompare(t, coord, srv.URL)
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
// once.
func TestDistBatchResultAppliedOnce(t *testing.T) {
	var committed atomic.Int64
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: racyIncrement, Options: named("racy", dporOpts), RefParallelism: 2,
		OnShardDone: func(decided []search.ShardDoneRec) error {
			committed.Add(int64(len(decided)))
			return nil
		},
	})
	worker, wave := leaseWave(t, srv.URL)
	req := runWave(worker, wave)
	before := committed.Load()

	var first, third dist.ResultResponse
	firstBytes := postJSONKey(t, srv.URL+dist.PathResult, "res-batch", req, &first)
	for i, ok := range first.Accepted {
		if !ok {
			t.Fatalf("item %d of the batch not accepted: %+v", i, first)
		}
	}
	if secondBytes := postJSONKey(t, srv.URL+dist.PathResult, "res-batch", req, nil); !bytes.Equal(firstBytes, secondBytes) {
		t.Fatalf("idempotent replay differs:\n%s\nvs\n%s", firstBytes, secondBytes)
	}
	postJSONKey(t, srv.URL+dist.PathResult, "", req, &third)
	for i, ok := range third.Accepted {
		if ok {
			t.Fatalf("keyless duplicate: item %d accepted twice", i)
		}
	}
	if got := committed.Load() - before; got != int64(len(wave)) {
		t.Fatalf("write-ahead hook saw %d decisions for a batch of %d delivered three times", got, len(wave))
	}
	finishAndCompare(t, coord, srv.URL)
}

// TestDistBatchVeto: when the write-ahead hook refuses a batch, none of
// it reaches the merge, its shards go back to pending, the worker is
// told 503 — and the refusal is not cached, so the retry under the same
// idempotency key lands once the hook recovers.
func TestDistBatchVeto(t *testing.T) {
	var mu sync.Mutex
	veto := false
	var offered []int
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
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
	worker, wave := leaseWave(t, srv.URL)
	req := runWave(worker, wave)
	// A failed item ahead of the completions: the veto must leave it
	// unprocessed too (no attempt charged for a batch that is retried).
	req.Results[0].Report, req.Results[0].Failure = nil, "panic: injected"
	body, _ := json.Marshal(req)
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
	merged := coordStatus(t, srv.URL).Merged
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("vetoed batch answered %d, want 503", resp.StatusCode)
	}
	if st := coordStatus(t, srv.URL); st.Merged != merged || st.Completed != merged || st.Leased != 0 {
		t.Fatalf("after a veto: %+v, want nothing merged beyond %d and no lease left", st, merged)
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

	got := finishAndCompare(t, coord, srv.URL)
	failed := 0
	for _, wf := range got.WorkerFailures {
		if wf.Unit == int64(wave[0].Shard.Index) {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("the batch's failed item was charged %d times, want once: %+v", failed, got.WorkerFailures)
	}
}

// TestDistLeaseLongPoll: a lease call with nothing grantable is held
// open and answered when the plan grows — by the wake, not by its hold
// running out; with nothing happening it comes back "wait" within the
// hold; and parked calls do not count against MaxInflight. Nothing here
// depends on how fast the box is: the calls start at most MaxInflight
// at a time, each wave waits until the coordinator shows it parked, and
// "at once" is an ordering (answered before the call's own hold could
// have ended), not a number of milliseconds.
func TestDistLeaseLongPoll(t *testing.T) {
	const maxInflight = 8
	m := &obs.Metrics{}
	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: racyIncrement, Options: named("racy", dporOpts), RefParallelism: 2,
		MaxInflight: maxInflight, Metrics: m,
	})
	const worker = "by-hand"
	root := leaseBatch(t, srv.URL, worker)
	rep := search.RunShard(racyIncrement, dporOpts, root[0].Shard, nil)

	// The root is leased and nothing else is planned: every further
	// lease call parks. Far more of them than MaxInflight.
	const parked = 200
	type answer struct {
		lr       dist.LeaseResponse
		code     int
		sent, at time.Time
	}
	answers := make(chan answer, parked+1)
	var answered atomic.Int64
	body, _ := json.Marshal(dist.LeaseRequest{WorkerID: worker})
	tr := &http.Transport{MaxConnsPerHost: parked}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	lease := func() {
		a := answer{sent: time.Now()}
		resp, err := client.Post(srv.URL+dist.PathLease, "application/json", bytes.NewReader(body))
		if err == nil {
			a.code = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&a.lr)
			resp.Body.Close()
		}
		a.at = time.Now()
		answered.Add(1)
		answers <- a
	}
	// awaitParked waits until every call started so far is parked (or,
	// on a box slow enough for a hold to run out meanwhile, answered).
	awaitParked := func(started int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for coord.ParkedLeases()+int(answered.Load()) < started {
			if time.Now().After(deadline) {
				t.Fatalf("%d lease calls started, %d parked, %d answered", started, coord.ParkedLeases(), answered.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for started := 0; started < parked; {
		for i := 0; i < maxInflight && started < parked; i++ {
			go lease()
			started++
		}
		awaitParked(started)
	}
	// Parked calls hold no slot: an ordinary request still gets in.
	coordStatus(t, srv.URL)
	if shed := m.Snapshot().ShedRequests; shed != 0 {
		t.Fatalf("%d requests shed with %d lease calls parked and MaxInflight %d", shed, parked, maxInflight)
	}

	// The plan grows: one parked call gets the wave — woken, so after
	// the growth began and before its own hold could have ended.
	growing := time.Now()
	var rr dist.ResultResponse
	postJSON(t, srv.URL+dist.PathResult, oneResult(worker, root[0], rep), &rr)
	var wave []dist.Grant
	for got := 0; got < parked; got++ {
		var a answer
		select {
		case a = <-answers:
		case <-time.After(dist.LeaseHold + 5*time.Second):
			t.Fatalf("%d parked lease calls still open after the hold", parked-got)
		}
		switch {
		case a.code != http.StatusOK:
			t.Fatalf("parked lease call answered HTTP %d", a.code)
		case a.lr.Status == dist.LeaseWork && wave == nil:
			if a.at.Before(growing) || !a.at.Before(a.sent.Add(dist.LeaseHold)) {
				t.Fatalf("wave granted to a call sent %s before the plan grew and answered %s after: not a woken parked call",
					growing.Sub(a.sent), a.at.Sub(growing))
			}
			wave = a.lr.Grants
		case a.lr.Status != dist.LeaseWait:
			// Nothing more happens (the wave is leased, never run): the
			// rest come back "wait" within the hold.
			t.Fatalf("parked lease call: %+v, want wait", a.lr)
		}
	}
	if wave == nil {
		t.Fatal("no parked lease call was granted the wave")
	}
	if shed := m.Snapshot().ShedRequests; shed != 0 {
		t.Fatalf("%d requests shed by parked lease calls", shed)
	}

	// The search finishes: a parked call is answered done, again by the
	// wake: a hold that ran out would have answered "wait".
	go lease()
	awaitParked(parked + 1)
	coord.Interrupt()
	select {
	case a := <-answers:
		if a.lr.Status != dist.LeaseDone || !a.at.Before(a.sent.Add(dist.LeaseHold)) {
			t.Fatalf("parked lease call answered %+v %s after it was sent, want done within the hold", a.lr, a.at.Sub(a.sent))
		}
	case <-time.After(dist.LeaseHold + 5*time.Second):
		t.Fatal("parked lease call not answered when the search finished")
	}
}
