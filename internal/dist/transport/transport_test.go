package transport

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2, Seed: 9}
	for attempt := 1; attempt <= 7; attempt++ {
		a := p.Backoff("/v1/result", attempt)
		b := p.Backoff("/v1/result", attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic: %s vs %s", attempt, a, b)
		}
		// Exponential value for this attempt, capped.
		exp := float64(p.BaseDelay)
		for i := 1; i < attempt; i++ {
			exp *= 2
			if exp > float64(p.MaxDelay) {
				exp = float64(p.MaxDelay)
				break
			}
		}
		if a < time.Duration(exp/2) || a >= time.Duration(exp) {
			t.Fatalf("attempt %d: backoff %s outside [%s, %s)", attempt, a, time.Duration(exp/2), time.Duration(exp))
		}
	}
	p2 := p
	p2.Seed = 10
	if p.Backoff("/v1/result", 3) == p2.Backoff("/v1/result", 3) {
		t.Fatal("different seeds should jitter differently")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("connection refused"), true},
		{&StatusError{StatusCode: 500}, true},
		{&StatusError{StatusCode: 429}, true},
		{&StatusError{StatusCode: 400}, false},
		{&StatusError{StatusCode: 404}, false},
		{ErrCircuitOpen, false},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// PostJSON is Post with in's JSON as the body and the response decoded
// as JSON into out (nil: ignored): how the tests below post.
func (c *Client) PostJSON(path string, in, out any, call Call) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.Post(path, body, func(data []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}, call)
}

// TestTerminalDecodeErrorNoRetry: a response whose decode error wraps
// ErrTerminal — another version's encoding — is not retried, while a
// garbled one is.
func TestTerminalDecodeErrorNoRetry(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.Write([]byte("?"))
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client(), Policy: Policy{MaxAttempts: 3}, Sleep: func(time.Duration) {}}
	for _, tc := range []struct {
		err   error
		calls int32
	}{{ErrTerminal, 1}, {errors.New("garbled"), 3}} {
		atomic.StoreInt32(&calls, 0)
		err := c.Post("/v1/x", nil, func([]byte) error { return tc.err }, Call{})
		if !errors.Is(err, tc.err) || atomic.LoadInt32(&calls) != tc.calls {
			t.Fatalf("decode error %v: %v after %d calls, want %d", tc.err, err, calls, tc.calls)
		}
	}
}

func TestPostJSONRetriesUntilSuccess(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	var retries int
	c := &Client{
		Base:    srv.URL,
		HTTP:    srv.Client(),
		Policy:  Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Multiplier: 2, Seed: 1},
		OnRetry: func(string, int, error) { retries++ },
		Sleep:   func(time.Duration) {},
	}
	var out struct{ OK bool }
	if err := c.PostJSON("/v1/x", map[string]int{"a": 1}, &out, Call{}); err != nil {
		t.Fatal(err)
	}
	if !out.OK || atomic.LoadInt32(&calls) != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d out=%+v", calls, retries, out)
	}
}

func TestPostJSONTerminalErrorNoRetry(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client(), Sleep: func(time.Duration) {}}
	err := c.PostJSON("/v1/x", nil, nil, Call{})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 StatusError, got %v", err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("terminal error must not retry, calls=%d", calls)
	}
}

func TestPostJSONHonorsRetryAfter(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	var slept []time.Duration
	c := &Client{
		Base:   srv.URL,
		HTTP:   srv.Client(),
		Policy: Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1},
		Sleep:  func(d time.Duration) { slept = append(slept, d) },
	}
	if err := c.PostJSON("/v1/x", nil, nil, Call{}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("Retry-After should dictate the backoff, slept=%v", slept)
	}
}

func TestPostJSONIdempotencyKeyOnEveryAttempt(t *testing.T) {
	var keys []string
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get(IdempotencyKeyHeader))
		if atomic.AddInt32(&calls, 1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := &Client{
		Base:   srv.URL,
		HTTP:   srv.Client(),
		Policy: Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1},
		Sleep:  func(time.Duration) {},
	}
	if err := c.PostJSON("/v1/x", nil, nil, Call{Key: "res-w1-l1-4"}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "res-w1-l1-4" || keys[1] != "res-w1-l1-4" {
		t.Fatalf("idempotency key must ride every attempt, got %v", keys)
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	now := time.Unix(0, 0)
	opens := 0
	b := &Breaker{Threshold: 3, Cooldown: time.Second, OnOpen: func() { opens++ }, Now: func() time.Time { return now }}

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Record(false)
	}
	if opens != 1 {
		t.Fatalf("opens = %d, want 1", opens)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	if !b.Open() {
		t.Fatal("Open() = false while open")
	}

	// After cooldown: exactly one half-open probe.
	now = now.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open probe refused")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails → reopen.
	b.Record(false)
	if opens != 2 {
		t.Fatalf("failed probe should reopen, opens = %d", opens)
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a call")
	}

	// Next probe succeeds → closed again.
	now = now.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Record(true)
	if !b.Allow() || b.Open() {
		t.Fatal("successful probe should close the breaker")
	}
}

func TestClientBreakerIntegration(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 2, Cooldown: time.Minute, Now: func() time.Time { return now }}
	c := &Client{
		Base:    srv.URL,
		HTTP:    srv.Client(),
		Policy:  Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, Seed: 1},
		Breaker: b,
		Sleep:   func(time.Duration) {},
	}
	for i := 0; i < 2; i++ {
		if err := c.PostJSON("/v1/x", nil, nil, Call{}); err == nil {
			t.Fatal("want error")
		}
	}
	err := c.PostJSON("/v1/x", nil, nil, Call{})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	// NoBreaker bypasses the open breaker.
	err = c.PostJSON("/v1/x", nil, nil, Call{NoBreaker: true})
	if errors.Is(err, ErrCircuitOpen) {
		t.Fatal("NoBreaker call must bypass the breaker")
	}
}

func TestShedDoesNotTripBreaker(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	b := &Breaker{Threshold: 2, Cooldown: time.Minute}
	c := &Client{
		Base:    srv.URL,
		HTTP:    srv.Client(),
		Policy:  Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, Seed: 1},
		Breaker: b,
		Sleep:   func(time.Duration) {},
	}
	for i := 0; i < 5; i++ {
		c.PostJSON("/v1/x", nil, nil, Call{})
	}
	if b.Open() {
		t.Fatal("429 responses must not open the breaker")
	}
}

func TestNoRetrySingleAttempt(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client(), Sleep: func(time.Duration) {}}
	if err := c.PostJSON("/v1/heartbeat", nil, nil, Call{NoRetry: true}); err == nil {
		t.Fatal("want error")
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("NoRetry made %d calls", calls)
	}
}

func TestMaxElapsedBoundsCall(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := &Client{
		Base:   srv.URL,
		HTTP:   srv.Client(),
		Policy: Policy{MaxAttempts: 100, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1},
	}
	start := time.Now()
	if err := c.PostJSON("/v1/x", nil, nil, Call{MaxElapsed: 120 * time.Millisecond}); err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("MaxElapsed ignored: call took %s", elapsed)
	}
	if n := atomic.LoadInt32(&calls); n >= 100 {
		t.Fatalf("MaxElapsed ignored: %d attempts", n)
	}
}
