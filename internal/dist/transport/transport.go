// Package transport is the hardened comms layer for worker↔coordinator
// HTTP calls: one retry policy with classified errors, exponential
// backoff with deterministic jitter, per-endpoint deadlines, optional
// idempotency keys, and a per-peer circuit breaker with half-open
// probes.
//
// Every remote interaction in internal/dist goes through Client.Post,
// whose caller encodes the body and decodes the response, so the failure
// behavior is uniform: transient failures (network errors, 5xx, 429,
// garbled responses) are retried under the policy; terminal failures
// (other 4xx, a response in another version's encoding) surface
// immediately.
// A 429 with Retry-After overrides the computed backoff, which is how
// workers honor coordinator load shedding.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fairmc/internal/rng"
)

// IdempotencyKeyHeader carries the client-chosen dedup key on POSTs
// whose effect must apply at most once (results, heartbeat metric
// deltas). The coordinator replays the original response for a repeated
// key.
const IdempotencyKeyHeader = "X-Idempotency-Key"

// Policy is the shared retry/backoff configuration.
type Policy struct {
	// MaxAttempts bounds tries per call (first attempt included).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it (Multiplier) up to MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// MaxElapsed bounds the whole call including backoff sleeps; zero
	// means attempts alone bound the call. Per-call overrides exist on
	// Call.
	MaxElapsed time.Duration
	// Seed keys the deterministic jitter stream; jitter for attempt k of
	// a path is a pure function of (Seed, path, k), so a retry schedule
	// replays exactly under the same seed.
	Seed uint64
}

// DefaultPolicy returns the policy used by workers unless tuned via
// flags: 8 attempts, 100ms base doubling to a 5s cap.
func DefaultPolicy(seed uint64) Policy {
	return Policy{
		MaxAttempts: 8,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Multiplier:  2,
		Seed:        seed,
	}
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return p
}

// Backoff returns the pause before attempt number attempt (1-based
// count of attempts already made) for the given path: exponential with
// deterministic jitter in [50%, 100%) of the exponential value.
func (p Policy) Backoff(path string, attempt int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	g := rng.New(rng.Mix(p.Seed, rng.Mix(pathHash(path), uint64(attempt))))
	frac := 0.5 + float64(g.Uint64()%1e6)/2e6 // [0.5, 1.0)
	return time.Duration(d * frac)
}

func pathHash(p string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// StatusError is a non-2xx HTTP response surfaced as an error.
type StatusError struct {
	Path       string
	StatusCode int
	Body       string
	// RetryAfter is the parsed Retry-After duration on a 429/503, zero
	// otherwise.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.Path, e.StatusCode, e.Body)
}

// ErrCircuitOpen is returned (wrapped) when the breaker refuses a call
// without touching the network.
var ErrCircuitOpen = errors.New("transport: circuit open")

// ErrTerminal marks a decode error no retry can fix: a response in
// another version's encoding.
var ErrTerminal = errors.New("transport: not retryable")

// Classify reports whether an error from one attempt is worth retrying.
// Network-level failures, 5xx, 429 (shed), and garbled/truncated
// responses are retryable; other 4xx, and a decode error that wraps
// ErrTerminal, are terminal (the request itself is wrong, or the peer is
// another build; a retry cannot fix it).
func Classify(err error) (retryable bool) {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.StatusCode == http.StatusTooManyRequests:
			return true
		case se.StatusCode >= 500:
			return true
		default:
			return false
		}
	}
	if errors.Is(err, ErrCircuitOpen) || errors.Is(err, ErrTerminal) {
		return false
	}
	// Everything else — net errors, injected faults, decode errors from
	// truncated bodies — is transient as far as the caller can tell.
	return true
}

// Breaker is a per-peer circuit breaker. After Threshold consecutive
// call failures it opens for Cooldown; the first call after cooldown is
// the half-open probe — its success closes the breaker, its failure
// re-opens it.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 2s).
	Cooldown time.Duration
	// OnOpen observes closed→open (and reopen-after-probe) transitions;
	// typically wired to obs.Metrics.BreakerOpens.
	OnOpen func()
	// Now replaces time.Now for tests; nil means time.Now.
	Now func() time.Time

	mu       sync.Mutex
	failures int
	state    breakerState
	openedAt time.Time
	probing  bool
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 2 * time.Second
	}
	return b.Cooldown
}

// Allow reports whether a call may proceed. In the open state it
// returns false until Cooldown has passed, then admits exactly one
// half-open probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown() {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds the final outcome of a call (after its retries) back
// into the breaker.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		b.state = breakerClosed
		b.probing = false
		return
	}
	if b.state == breakerHalfOpen {
		// Probe failed: straight back to open.
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		if b.OnOpen != nil {
			b.OnOpen()
		}
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold() {
		b.state = breakerOpen
		b.openedAt = b.now()
		if b.OnOpen != nil {
			b.OnOpen()
		}
	}
}

// Reset closes the breaker unconditionally. A successful out-of-band
// probe (e.g. a fresh join, which bypasses the breaker) proves the peer
// reachable again.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.state = breakerClosed
	b.probing = false
}

// Open reports whether the breaker is currently refusing calls.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen && b.now().Sub(b.openedAt) < b.cooldown()
}

// Call tunes one Post invocation.
type Call struct {
	// Key, when non-empty, is sent as the idempotency key header on
	// every attempt so server-side dedup collapses retries.
	Key string
	// MaxElapsed overrides Policy.MaxElapsed for this call.
	MaxElapsed time.Duration
	// MaxAttempts overrides Policy.MaxAttempts for this call.
	MaxAttempts int
	// NoRetry makes the call single-attempt (heartbeats: the next tick
	// is the retry).
	NoRetry bool
	// NoBreaker bypasses the circuit breaker (join: the point of the
	// call is to probe reachability).
	NoBreaker bool
}

// Client issues retried POSTs against one peer.
type Client struct {
	// Base is the peer URL prefix, e.g. "http://host:9000".
	Base string
	// HTTP is the underlying client. Its Timeout should be zero; the
	// transport applies per-endpoint deadlines via Deadlines instead.
	HTTP *http.Client
	// Policy is the retry/backoff configuration.
	Policy Policy
	// Deadlines maps endpoint path → per-attempt deadline. Paths absent
	// from the map use DefaultDeadline.
	Deadlines map[string]time.Duration
	// DefaultDeadline is the per-attempt deadline for unlisted paths
	// (default 10s).
	DefaultDeadline time.Duration
	// Breaker, when set, gates calls to the peer.
	Breaker *Breaker
	// OnRetry observes each retried attempt: path, attempt number
	// (1-based, the attempt that failed), and the error. Typically wired
	// to obs.Metrics.DistRetries.
	OnRetry func(path string, attempt int, err error)
	// Sleep replaces time.Sleep for backoff pauses (tests).
	Sleep func(time.Duration)
	// Ctx, when set and cancelled, aborts the attempt in flight (a
	// lease call the coordinator is holding open, most of the time) and
	// any backoff sleep, so workers shut down promptly.
	Ctx context.Context
}

// StopContext returns a context cancelled when stop is closed (a nil
// stop never is) or cancel is called; call cancel when done with it, or
// the goroutine watching stop outlives the caller.
func StopContext(stop <-chan struct{}) (ctx context.Context, cancel context.CancelFunc) {
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

func (c *Client) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c *Client) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if c.Sleep != nil {
		c.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx().Done():
		return false
	}
}

func (c *Client) deadline(path string) time.Duration {
	if d, ok := c.Deadlines[path]; ok && d > 0 {
		return d
	}
	if c.DefaultDeadline > 0 {
		return c.DefaultDeadline
	}
	return 10 * time.Second
}

var errStopped = errors.New("transport: stopped")

// Post POSTs body to path and hands the response body to decode,
// retrying retryable failures under the policy — a decode error among
// them, unless it wraps ErrTerminal. The returned error is the last
// attempt's error, or a wrapped ErrCircuitOpen if the breaker refused
// the call.
func (c *Client) Post(path string, body []byte, decode func([]byte) error, call Call) error {
	if c.Breaker != nil && !call.NoBreaker {
		if !c.Breaker.Allow() {
			return fmt.Errorf("%s: %w", path, ErrCircuitOpen)
		}
	}
	err := c.postRetry(path, body, decode, call)
	if c.Breaker != nil && !call.NoBreaker {
		// Shed (429) responses are the coordinator protecting itself,
		// not the peer being down — they don't trip the breaker.
		c.Breaker.Record(err == nil || isShed(err))
	}
	return err
}

func isShed(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.StatusCode == http.StatusTooManyRequests
}

func (c *Client) postRetry(path string, body []byte, decode func([]byte) error, call Call) error {
	policy := c.Policy.withDefaults()
	attempts := policy.MaxAttempts
	if call.MaxAttempts > 0 {
		attempts = call.MaxAttempts
	}
	if call.NoRetry {
		attempts = 1
	}
	maxElapsed := policy.MaxElapsed
	if call.MaxElapsed > 0 {
		maxElapsed = call.MaxElapsed
	}
	start := time.Now()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			backoff := policy.Backoff(path, attempt-1)
			// A shed response dictates its own pause.
			var se *StatusError
			if errors.As(lastErr, &se) && se.RetryAfter > 0 {
				backoff = se.RetryAfter
			}
			if maxElapsed > 0 && time.Since(start)+backoff > maxElapsed {
				break
			}
			if !c.sleep(backoff) {
				return fmt.Errorf("%s: %w", path, errStopped)
			}
		}
		lastErr = c.postOnce(path, body, decode, call.Key)
		if lastErr == nil {
			return nil
		}
		if c.ctx().Err() != nil {
			return fmt.Errorf("%s: %w", path, errStopped)
		}
		if !Classify(lastErr) {
			return lastErr
		}
		if c.OnRetry != nil && attempt < attempts {
			c.OnRetry(path, attempt, lastErr)
		}
		if maxElapsed > 0 && time.Since(start) >= maxElapsed {
			break
		}
	}
	return lastErr
}

func (c *Client) postOnce(path string, body []byte, decode func([]byte) error, key string) error {
	ctx, cancel := context.WithTimeout(c.ctx(), c.deadline(path))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := ReadAll(resp.Body, resp.ContentLength, 16<<20)
	if err != nil {
		return fmt.Errorf("%s: read: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{
			Path:       path,
			StatusCode: resp.StatusCode,
			Body:       truncate(string(bytes.TrimSpace(data)), 200),
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return se
	}
	if err := decode(data); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

// ReadAll reads r to its end, at most limit bytes, into one buffer of
// size bytes when size, an HTTP body's length, is known (not negative).
func ReadAll(r io.Reader, size, limit int64) ([]byte, error) {
	if size < 0 || size > limit {
		return io.ReadAll(io.LimitReader(r, limit))
	}
	buf := make([]byte, size)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
