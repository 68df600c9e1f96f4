package jobs

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// TestDistLeaseLongPoll: a lease call with nothing grantable is held
// open and answered when the plan grows — by the wake, not by its hold
// running out; with nothing happening it comes back "wait" within the
// hold; and parked calls do not count against the in-flight bound.
// Nothing here depends on how fast the box is: the calls start at most
// the bound at a time, each wave waits until the service shows it
// parked, and "at once" is an ordering (answered before the call's own
// hold could have ended), not a number of milliseconds.
func TestDistLeaseLongPoll(t *testing.T) {
	const maxInflight = 8
	m := &obs.Metrics{}
	s, srv := startService(t, Config{Dir: t.TempDir(), Metrics: m, maxInflight: maxInflight})
	id := submitJob(t, srv.URL, "racy", dporJobOpts, 2)
	waitState(t, srv.URL, id, StateRunning)
	const worker = "by-hand"
	var root dist.LeaseResponse
	postProto(t, srv.URL+dist.PathLease, dist.LeaseRequest{WorkerID: worker}, &root)
	if root.Status != dist.LeaseWork || len(root.Grants) != 1 {
		t.Fatalf("first lease of a DPOR job: %+v, want its root unit", root)
	}
	rep := search.RunShard(racyIncrement, dporJobOpts, root.Grants[0].Shard, nil)

	// The root is leased and nothing else is planned: every further
	// lease call parks. Far more of them than the bound.
	const parked = 200
	answers := make(chan leaseAnswer, parked+1)
	var answered atomic.Int64
	body := wire(t, dist.LeaseRequest{WorkerID: worker})
	tr := &http.Transport{MaxConnsPerHost: parked}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	lease := func() {
		a := leaseAnswer{sent: time.Now()}
		resp, err := client.Post(srv.URL+dist.PathLease, "application/json", bytes.NewReader(body))
		if err == nil {
			a.code = resp.StatusCode
			data, _ := io.ReadAll(resp.Body)
			unwire(data, &a.lr)
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
		for s.ParkedLeases()+int(answered.Load()) < started {
			if time.Now().After(deadline) {
				t.Fatalf("%d lease calls started, %d parked, %d answered", started, s.ParkedLeases(), answered.Load())
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
	resp, err := http.Get(srv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if shed := m.Snapshot().ShedRequests; shed != 0 || resp.StatusCode != http.StatusOK {
		t.Fatalf("status answered HTTP %d, %d requests shed, with %d lease calls parked and the bound %d", resp.StatusCode, shed, parked, maxInflight)
	}

	// The plan grows: one parked call gets the wave — woken, so after
	// the growth began and before its own hold could have ended.
	growing := time.Now()
	postProto(t, srv.URL+root.Path+dist.PathResult, dist.ResultRequest{WorkerID: worker, Results: []dist.ShardResult{
		{LeaseID: root.Grants[0].LeaseID, Shard: root.Grants[0].Shard.Index, Report: rep},
	}}, &dist.ResultResponse{})
	var wave []dist.Grant
	for got := 0; got < parked; got++ {
		var a leaseAnswer
		select {
		case a = <-answers:
		case <-time.After(dist.LeaseHold + 5*time.Second):
			t.Fatalf("%d parked lease calls still open after the hold", parked-got)
		}
		switch {
		case a.code != http.StatusOK:
			t.Fatalf("parked lease call answered HTTP %d", a.code)
		case a.lr.Status == dist.LeaseWork && wave == nil:
			if !a.woken(growing) {
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

	// The service closes: a parked call is answered done, again by the
	// wake: a hold that ran out would have answered "wait".
	go lease()
	awaitParked(parked + 1)
	go s.Close()
	select {
	case a := <-answers:
		if a.lr.Status != dist.LeaseDone || !a.at.Before(a.sent.Add(dist.LeaseHold)) {
			t.Fatalf("parked lease call answered %+v %s after it was sent, want done within the hold", a.lr, a.at.Sub(a.sent))
		}
	case <-time.After(dist.LeaseHold + 5*time.Second):
		t.Fatal("parked lease call not answered when the service closed")
	}
}

// blockingWriter lets the test hold one request inside a handler so a
// second request overflows the in-flight bound.
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

// TestDistLoadShedding: beyond the in-flight bound the service answers
// 429 with Retry-After instead of queueing, and counts the refusal — a
// request a mounted job is serving holds a slot like any other.
func TestDistLoadShedding(t *testing.T) {
	bw := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	m := &obs.Metrics{}
	_, srv := startService(t, Config{Dir: t.TempDir(), Metrics: m, EventWriter: bw, maxInflight: 1})
	id := submitJob(t, srv.URL, "fig3", baseOpts, 2)
	waitState(t, srv.URL, id, StateRunning)
	defer close(bw.release)

	// Occupy the only slot with an event post that blocks in the job's
	// handler...
	go http.Post(srv.URL+PathJobPrefix+id+dist.PathEvents, "application/jsonl", bytes.NewReader([]byte("{}\n")))
	<-bw.entered

	// ...then any further request must be shed.
	resp, err := http.Get(srv.URL + PathStatus)
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
