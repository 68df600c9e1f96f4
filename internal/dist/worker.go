package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"fairmc/internal/dist/transport"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// ErrSpecMismatch reports that the coordinator's options hash does not
// match the options this worker rebuilt from the spec: version skew or
// a worker pointed at the wrong coordinator. The CLI maps it to the
// usage exit status.
var ErrSpecMismatch = errors.New("dist: coordinator options hash does not match this worker's build")

// errUnreachable marks a session that died because the coordinator
// stopped answering (breaker open or repeated final call failures); the
// outer RunWorker loop responds by rejoining within the join budget.
var errUnreachable = errors.New("dist: coordinator unreachable")

// DefaultJoinTimeout bounds the initial join and each rejoin window.
const DefaultJoinTimeout = 30 * time.Second

// Per-endpoint per-attempt deadlines: a join probe or heartbeat should
// fail fast, a result upload may carry megabytes of report.
var workerDeadlines = map[string]time.Duration{
	PathJoin:      5 * time.Second,
	PathLease:     10 * time.Second,
	PathHeartbeat: 5 * time.Second,
	PathResult:    60 * time.Second,
}

// eventPostDeadline bounds best-effort event batch uploads.
const eventPostDeadline = 15 * time.Second

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// URL is the coordinator's base URL (e.g. http://host:7171).
	URL string
	// Capacity is how many shards to run concurrently; 0 means 1.
	Capacity int
	// WorkDir holds per-shard checkpoints (so a restarted worker resumes
	// a long stride shard instead of rerunning it) and the result spool
	// (completed shard reports persisted while the coordinator is
	// unreachable, replayed on rejoin); empty disables both.
	WorkDir string
	// Lookup resolves the program name the coordinator sends to the
	// program body (e.g. an adapter around progs.Lookup).
	Lookup func(name string) (func(*engine.T), bool)
	// Metrics, when set, is the worker's live registry; deltas are
	// forwarded to the coordinator with every heartbeat.
	Metrics *obs.Metrics
	// Logf, when set, receives one-line operational logs.
	Logf func(format string, args ...any)
	// Stop, when closed, makes the worker abandon its shards and
	// return nil.
	Stop <-chan struct{}

	// Retry is the backoff policy shared by every coordinator call
	// (join probes, leases, heartbeats, result uploads). A zero value
	// uses transport.DefaultPolicy.
	Retry transport.Policy
	// JoinTimeout bounds the initial join and each rejoin window after
	// the coordinator becomes unreachable; 0 means DefaultJoinTimeout.
	JoinTimeout time.Duration
	// Transport, when set, replaces the underlying HTTP transport —
	// the seam where faultinject.RoundTripper plugs in.
	Transport http.RoundTripper
	// FS, when set, replaces the filesystem used for the result spool —
	// the seam where faultinject.FSInjector plugs in. Nil means the
	// real filesystem.
	FS fsx.FS
}

// hbState is heartbeat bookkeeping that must survive rejoins: the
// metrics baseline only advances when a heartbeat actually lands, so a
// delta that failed to send (or was sent during a partition) is carried
// into the next attempt instead of lost, and the idempotency sequence
// keeps a retried heartbeat from being merged twice.
type hbState struct {
	mu   sync.Mutex
	prev obs.Snapshot
	seq  int
}

// Worker is a shard executor that outlives the searches it serves: it
// holds one engine pool per capacity slot for its whole lifetime, so a
// worker that runs many shards — or, as a jobs-service pool worker,
// many searches — keeps reusing the same engines (the pool takes the
// program per run). The zero value is ready; Close it when done. Run
// must not be called concurrently with itself.
type Worker struct {
	pools []engine.Pool
}

// Close retires the pooled engines.
func (w *Worker) Close() {
	for i := range w.pools {
		w.pools[i].Close()
	}
}

// RunWorker is Worker.Run on a one-search Worker.
func RunWorker(cfg WorkerConfig) error {
	var w Worker
	defer w.Close()
	return w.Run(cfg)
}

// worker is the per-session state of one join: one worker ID, one set
// of leases. Run builds a fresh session after every rejoin.
type worker struct {
	cfg   WorkerConfig
	pools []engine.Pool // one per capacity slot, owned by the Worker
	tc    *transport.Client
	hb    *hbState
	id    string
	spec  SearchSpec
	opts  search.Options
	prog  func(*engine.T)
	ttl   time.Duration

	mu     sync.Mutex
	active map[string]chan struct{} // lease id -> shard stop channel

	events *eventForwarder
	rec    *obs.Recorder

	done chan struct{} // coordinator said the search is over
	once sync.Once
}

// Run joins the coordinator at cfg.URL and runs shards until the
// coordinator reports the search done (returning nil) or cfg.Stop is
// closed (nil). If the coordinator becomes unreachable mid-session the
// worker spools any completed-but-unposted shard reports to -workdir,
// rejoins within cfg.JoinTimeout, replays the spool under its new
// identity, and continues; only an exhausted join budget (or a
// configuration rejection) is an error.
func (w *Worker) Run(cfg WorkerConfig) error {
	if cfg.Lookup == nil {
		return errors.New("dist: worker needs a program Lookup")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if len(w.pools) < cfg.Capacity {
		w.pools = append(w.pools, make([]engine.Pool, cfg.Capacity-len(w.pools))...)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = DefaultJoinTimeout
	}
	if cfg.Retry.MaxAttempts == 0 && cfg.Retry.BaseDelay == 0 {
		cfg.Retry = transport.DefaultPolicy(1)
	}
	if cfg.FS == nil {
		cfg.FS = fsx.OS
	}

	// Closing Stop hangs up whatever call is in flight — most of the time
	// a lease call the coordinator is holding open.
	ctx, cancel := transport.StopContext(cfg.Stop)
	defer cancel()

	breaker := &transport.Breaker{}
	if cfg.Metrics != nil {
		breaker.OnOpen = func() { cfg.Metrics.BreakerOpens.Inc() }
	}
	httpc := &http.Client{} // deadlines are per-endpoint, not global
	if cfg.Transport != nil {
		httpc.Transport = cfg.Transport
	}
	tc := &transport.Client{
		Base:      cfg.URL,
		HTTP:      httpc,
		Policy:    cfg.Retry,
		Deadlines: workerDeadlines,
		Breaker:   breaker,
		Ctx:       ctx,
	}
	if cfg.Metrics != nil {
		tc.OnRetry = func(string, int, error) { cfg.Metrics.DistRetries.Inc() }
	}

	hb := &hbState{}
	if cfg.Metrics != nil {
		hb.prev = cfg.Metrics.Snapshot()
	}

	rejoined := false
	for {
		wk, err := startSession(cfg, tc, hb)
		if err != nil {
			if rejoined {
				// The spool (if any) stays on disk for the next worker
				// pointed at this workdir.
				cfg.Logf("dist: giving up rejoin: %v", err)
			}
			return err
		}
		wk.pools = w.pools
		err = wk.runSession()
		if err == nil {
			return nil // done or stopped
		}
		if !errors.Is(err, errUnreachable) {
			return err
		}
		if wk.stopped() {
			return nil
		}
		rejoined = true
		cfg.Logf("dist: session %s lost the coordinator; rejoining (budget %s)", wk.id, cfg.JoinTimeout)
	}
}

// startSession joins (within the join budget), validates the spec, and
// replays any spooled results under the new worker identity.
func startSession(cfg WorkerConfig, tc *transport.Client, hb *hbState) (*worker, error) {
	join, err := joinLoop(cfg, tc)
	if err != nil {
		return nil, err
	}
	if tc.Breaker != nil {
		// The join (which bypasses the breaker) just proved the
		// coordinator reachable; don't fail-fast the spool replay.
		tc.Breaker.Reset()
	}
	wk := &worker{
		cfg:    cfg,
		tc:     tc,
		hb:     hb,
		id:     join.WorkerID,
		spec:   join.Spec,
		active: map[string]chan struct{}{},
		done:   make(chan struct{}),
	}
	wk.ttl = time.Duration(join.LeaseTTLMS) * time.Millisecond
	if wk.ttl <= 0 {
		wk.ttl = DefaultLeaseTTL
	}
	wk.opts = join.Spec.Options()
	if got := search.OptionsHash(&wk.opts); got != join.OptionsHash {
		return nil, fmt.Errorf("%w (coordinator %#x, worker %#x)", ErrSpecMismatch, join.OptionsHash, got)
	}
	prog, ok := cfg.Lookup(join.Spec.Program)
	if !ok {
		return nil, fmt.Errorf("dist: coordinator wants program %q, which this worker does not have", join.Spec.Program)
	}
	wk.prog = prog
	wk.opts.Metrics = cfg.Metrics
	if join.WantEvents {
		wk.events = newEventForwarder(wk.cfg.Transport, cfg.URL+PathEvents)
		// Parallel shard goroutines emit in bursts; the recorder's
		// bounded queue keeps emission non-blocking end to end.
		wk.rec = obs.NewRecorder(wk.events, 1<<14)
		wk.opts.EventSink = wk.rec
	}
	cfg.Logf("dist: joined %s as %s: program %s, %d shards (%s), lease TTL %s",
		cfg.URL, wk.id, join.Spec.Program, join.ShardCount, join.Strategy, wk.ttl)
	wk.replaySpool(join.OptionsHash)
	return wk, nil
}

// joinLoop registers with the coordinator, retrying under the shared
// backoff policy until the join budget runs out (the coordinator may
// still be binding its listener, or a partition may be healing).
func joinLoop(cfg WorkerConfig, tc *transport.Client) (*JoinResponse, error) {
	deadline := time.Now().Add(cfg.JoinTimeout)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if isStopped(cfg.Stop) {
			return nil, errors.New("dist: stopped before joining")
		}
		join := &JoinResponse{}
		// Single attempt per call: the loop owns the backoff, and the
		// breaker is bypassed — a join IS the reachability probe.
		lastErr = tc.PostJSON(PathJoin, JoinRequest{Capacity: cfg.Capacity}, join,
			transport.Call{NoBreaker: true, MaxAttempts: 1})
		if lastErr == nil {
			return join, nil
		}
		if !transport.Classify(lastErr) {
			return nil, fmt.Errorf("dist: join rejected: %w", lastErr)
		}
		backoff := cfg.Retry.Backoff(PathJoin, attempt)
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dist: coordinator %s unreachable after %s: %w",
				cfg.URL, cfg.JoinTimeout, lastErr)
		}
		if !SleepStop(backoff, cfg.Stop) {
			return nil, errors.New("dist: stopped before joining")
		}
	}
}

func isStopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// SleepStop pauses for d (not at all when d <= 0), cut short
// (returning false) by stop; a nil stop never cuts it.
func SleepStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// replaySpool posts results spooled by a previous session (or a
// previous worker process sharing this workdir) so a coordinator
// restart or partition loses zero completed executions. Entries for a
// different search are left alone; replayed entries are deleted once
// the coordinator acknowledges them — whether accepted or already
// decided elsewhere.
func (wk *worker) replaySpool(optionsHash uint64) {
	if wk.cfg.WorkDir == "" {
		return
	}
	entries, corrupt, skipped, err := spoolList(wk.cfg.FS, wk.cfg.WorkDir, optionsHash, wk.spec.Program)
	if err != nil {
		wk.cfg.Logf("dist: scanning spool: %v", err)
		return
	}
	for _, msg := range skipped {
		wk.cfg.Logf("dist: spool: skipping %s", msg)
	}
	// A corrupt entry (torn write or bit rot caught by the CRC footer)
	// is not replayable and must not fail the whole replay: surface it
	// to the coordinator as an advisory WorkerFailure — no lease, no
	// attempt charged, no worker exclusion — then discard the file so
	// it is reported once, not on every rejoin.
	for _, bad := range corrupt {
		wk.cfg.Logf("dist: spool: corrupt entry %s (%s)", bad.Name, bad.Reason)
		req := ResultRequest{WorkerID: wk.id, Results: []ShardResult{{
			Shard:   bad.Shard,
			Failure: fmt.Sprintf("corrupt spool entry %s: %s", bad.Name, bad.Reason),
		}}}
		key := fmt.Sprintf("res-%s-spoolbad-%s", wk.id, bad.Name)
		if err := wk.tc.PostJSON(PathResult, req, &ResultResponse{}, transport.Call{Key: key}); err != nil {
			wk.cfg.Logf("dist: reporting corrupt spool entry %s: %v", bad.Name, err)
			continue // keep the file; a later session re-reports
		}
		if bad.Shard >= 0 {
			if rerr := spoolRemove(wk.cfg.FS, wk.cfg.WorkDir, bad.Shard); rerr != nil {
				wk.cfg.Logf("dist: removing corrupt spool entry %s: %v", bad.Name, rerr)
			}
		}
	}
	for _, e := range entries {
		resp := &ResultResponse{}
		req := ResultRequest{WorkerID: wk.id, Results: []ShardResult{{LeaseID: "spool-replay", Shard: e.Shard, Report: e.Report}}}
		key := fmt.Sprintf("res-%s-spool-%d", wk.id, e.Shard)
		if err := wk.tc.PostJSON(PathResult, req, resp, transport.Call{Key: key}); err != nil {
			wk.cfg.Logf("dist: replaying spooled shard %d: %v", e.Shard, err)
			continue // still spooled; a later session retries
		}
		if rerr := spoolRemove(wk.cfg.FS, wk.cfg.WorkDir, e.Shard); rerr != nil {
			wk.cfg.Logf("dist: removing spooled shard %d: %v", e.Shard, rerr)
		}
		wk.cfg.Logf("dist: replayed spooled shard %d (accepted=%v)", e.Shard, slices.Contains(resp.Accepted, true))
		if resp.Done {
			wk.finish()
		}
	}
}

// runSession runs shard loops and heartbeats until done, stop, or the
// coordinator becomes unreachable (errUnreachable).
func (wk *worker) runSession() error {
	hbDone := make(chan struct{})
	go wk.heartbeatLoop(hbDone)

	var wg sync.WaitGroup
	errs := make(chan error, wk.cfg.Capacity)
	for i := 0; i < wk.cfg.Capacity; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- wk.shardLoop(&wk.pools[i])
		}()
	}
	wg.Wait()
	wk.finish()
	close(hbDone)
	if wk.rec != nil {
		wk.rec.Close()
		wk.events.Flush()
	}
	// Final telemetry flush so short-lived work is not lost between
	// heartbeats (skipped when the coordinator is already gone).
	var sessionErr error
	for i := 0; i < wk.cfg.Capacity; i++ {
		if err := <-errs; err != nil && sessionErr == nil {
			sessionErr = err
		}
	}
	if sessionErr == nil {
		wk.heartbeat(nil)
	}
	return sessionErr
}

// finish marks the worker as done (idempotent).
func (wk *worker) finish() { wk.once.Do(func() { close(wk.done) }) }

func (wk *worker) stopped() bool { return isStopped(wk.cfg.Stop) }

// heartbeatLoop extends leases and forwards telemetry until the worker
// finishes. It is also the session's one watcher of cfg.Stop: a stopped
// worker abandons whatever shards it holds.
func (wk *worker) heartbeatLoop(stop <-chan struct{}) {
	iv := wk.ttl / 3
	if iv < 20*time.Millisecond {
		iv = 20 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-wk.done:
			return
		case <-wk.cfg.Stop:
			wk.mu.Lock()
			for id := range wk.active {
				wk.cancelLocked(id)
			}
			wk.mu.Unlock()
			return
		case <-t.C:
			wk.heartbeat(nil)
		}
	}
}

// cancelLocked stops the shard running or waiting under a lease.
// Closing and forgetting the lease happen together under mu, so no stop
// channel closes twice.
func (wk *worker) cancelLocked(leaseID string) {
	if ch, ok := wk.active[leaseID]; ok {
		close(ch)
		delete(wk.active, leaseID)
	}
}

// heartbeat posts one heartbeat; extra lease ids (e.g. a lease just
// granted) can be included before the tracking map sees them. Each
// heartbeat carries a fresh idempotency key so a duplicated delivery
// merges its metrics delta exactly once, and the delta baseline only
// advances when the post succeeds.
func (wk *worker) heartbeat(extra []string) {
	wk.mu.Lock()
	ids := append([]string(nil), extra...)
	for id := range wk.active {
		ids = append(ids, id)
	}
	wk.mu.Unlock()

	wk.hb.mu.Lock()
	var delta *obs.Snapshot
	var cur obs.Snapshot
	if wk.cfg.Metrics != nil {
		cur = wk.cfg.Metrics.Snapshot()
		d := cur.Sub(wk.hb.prev)
		delta = &d
	}
	wk.hb.seq++
	key := fmt.Sprintf("hb-%s-%d", wk.id, wk.hb.seq)
	resp := &HeartbeatResponse{}
	err := wk.tc.PostJSON(PathHeartbeat,
		HeartbeatRequest{WorkerID: wk.id, LeaseIDs: ids, Metrics: delta}, resp,
		transport.Call{Key: key, MaxAttempts: 2})
	if err == nil && wk.cfg.Metrics != nil {
		wk.hb.prev = cur
	}
	wk.hb.mu.Unlock()

	if err != nil {
		// The final flush often races the coordinator's own exit; a
		// failed heartbeat after done is expected, not noteworthy.
		select {
		case <-wk.done:
		default:
			wk.cfg.Logf("dist: heartbeat: %v", err)
		}
		return
	}
	wk.mu.Lock()
	for _, id := range resp.Cancelled {
		wk.cancelLocked(id)
	}
	wk.mu.Unlock()
	if resp.Done {
		wk.finish()
	}
}

// shardLoop is one capacity slot: lease, run (on the slot's engine
// pool), post, repeat. It declares the coordinator unreachable when the
// breaker opens or two lease calls in a row fail after full retries.
func (wk *worker) shardLoop(pool *engine.Pool) error {
	consecutiveErrs := 0
	for {
		if wk.stopped() {
			return nil
		}
		select {
		case <-wk.done:
			return nil
		default:
		}
		resp := &LeaseResponse{}
		asked := time.Now()
		err := wk.tc.PostJSON(PathLease, LeaseRequest{WorkerID: wk.id}, resp,
			transport.Call{MaxAttempts: 3})
		if err != nil {
			if errors.Is(err, transport.ErrCircuitOpen) {
				return fmt.Errorf("%w: %v", errUnreachable, err)
			}
			consecutiveErrs++
			if consecutiveErrs >= 2 {
				return fmt.Errorf("%w: %v", errUnreachable, err)
			}
			wk.sleep(wk.cfg.Retry.Backoff(PathLease, consecutiveErrs))
			continue
		}
		consecutiveErrs = 0
		switch resp.Status {
		case LeaseDone:
			wk.finish()
			return nil
		case LeaseWait:
			// The coordinator held the call open for LeaseHold before
			// saying so; the timer only paces one that answers at once.
			iv := wk.ttl / 4
			if iv > 500*time.Millisecond {
				iv = 500 * time.Millisecond
			}
			wk.sleep(iv - time.Since(asked))
			continue
		case LeaseWork:
			wk.runBatch(pool, resp.Grants)
		default:
			return fmt.Errorf("dist: unknown lease status %q", resp.Status)
		}
	}
}

// sleep waits without outliving a stop or done signal.
func (wk *worker) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-wk.cfg.Stop: // nil: never
	case <-wk.done:
	}
}

// runBatch runs the shards of one lease call in plan order on the
// slot's engine pool and posts their outcomes as one result batch.
// Every lease of the batch is registered for heartbeats up front and
// stays registered until the batch is posted, so the ones still waiting
// their turn are kept alive too. Completed reports whose upload fails
// outright are spooled to -workdir for replay on rejoin.
func (wk *worker) runBatch(pool *engine.Pool, grants []Grant) {
	stops := make([]chan struct{}, len(grants))
	wk.mu.Lock()
	for i, g := range grants {
		stops[i] = make(chan struct{})
		wk.active[g.LeaseID] = stops[i]
	}
	wk.mu.Unlock()
	defer func() {
		wk.mu.Lock()
		for _, g := range grants {
			delete(wk.active, g.LeaseID)
		}
		wk.mu.Unlock()
	}()

	results := make([]ShardResult, 0, len(grants))
	ckpts := make([]string, 0, len(grants))
	for i, g := range grants {
		if wk.stopped() {
			break // a lease registered after Stop fired was not cancelled
		}
		if res, ckpt, ok := wk.runShard(pool, g, stops[i]); ok {
			results = append(results, res)
			ckpts = append(ckpts, ckpt)
		}
	}
	if len(results) == 0 {
		return
	}

	resp := &ResultResponse{}
	key := fmt.Sprintf("res-%s-%s", wk.id, results[0].LeaseID)
	if err := wk.tc.PostJSON(PathResult, ResultRequest{WorkerID: wk.id, Results: results}, resp, transport.Call{Key: key}); err != nil {
		wk.cfg.Logf("dist: posting %d shard results (%d..): %v", len(results), results[0].Shard, err)
		if wk.cfg.WorkDir == "" {
			return
		}
		// The work is done; don't lose it to a dead link. Failure reports
		// are not spooled — lease expiry already requeues the shard
		// elsewhere.
		for _, res := range results {
			if res.Report == nil {
				continue
			}
			e := spoolEntry{
				OptionsHash: search.OptionsHash(&wk.opts),
				Program:     wk.spec.Program,
				Shard:       res.Shard,
				Report:      res.Report,
			}
			if serr := spoolWrite(wk.cfg.FS, wk.cfg.WorkDir, e); serr != nil {
				wk.cfg.Logf("dist: spooling shard %d: %v", res.Shard, serr)
				continue
			}
			if wk.cfg.Metrics != nil {
				wk.cfg.Metrics.SpooledResults.Inc()
			}
			wk.cfg.Logf("dist: spooled shard %d result for replay", res.Shard)
		}
		return
	}
	for i, ok := range resp.Accepted {
		if ok && i < len(ckpts) && ckpts[i] != "" && results[i].Report != nil {
			os.Remove(ckpts[i])
		}
	}
	if resp.Done {
		wk.finish()
	}
}

// runShard executes one leased shard and returns its outcome for the
// batch. A panic in the program (or the engine) becomes a structured
// failure so the coordinator can retry the shard elsewhere. ok is false
// for a shard cancelled before or while it ran (lease lost or worker
// stopping): the partial report must not be merged, and the coordinator
// has already requeued or cut the shard. ckpt is the shard's checkpoint
// file, if it keeps one.
func (wk *worker) runShard(pool *engine.Pool, g Grant, stop <-chan struct{}) (res ShardResult, ckpt string, ok bool) {
	sh := g.Shard
	opts := wk.opts
	if wk.cfg.WorkDir != "" && sh.Hi > 0 {
		// Per-shard checkpointing (range shards only: a prefix
		// subtree reruns from scratch, and a DPOR unit is a single
		// execution). A stale or foreign checkpoint is discarded,
		// never trusted.
		ckpt = filepath.Join(wk.cfg.WorkDir, fmt.Sprintf("shard-%04d.ckpt", sh.Index))
		opts.CheckpointPath = ckpt
		if ck, err := search.LoadCheckpoint(ckpt); err == nil {
			if verr := search.ValidateShardResume(&opts, sh, ck); verr == nil {
				opts.Resume = ck
				wk.cfg.Logf("dist: shard %d resuming from %s (execution %d)",
					sh.Index, ckpt, ck.Counters.Executions)
			} else {
				wk.cfg.Logf("dist: shard %d ignoring checkpoint %s: %v", sh.Index, ckpt, verr)
				os.Remove(ckpt)
			}
		}
	}

	res = ShardResult{LeaseID: g.LeaseID, Shard: sh.Index}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Report = nil
				res.Failure = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		res.Report = search.RunShardOn(pool, wk.prog, opts, sh, stop)
	}()
	if res.Failure != "" {
		wk.cfg.Logf("dist: shard %d crashed: %.120s", sh.Index, res.Failure)
	} else if res.Report != nil && res.Report.Interrupted {
		return res, ckpt, false
	}
	return res, ckpt, true
}

// eventForwarder batches the recorder's JSONL output and posts it to
// the coordinator. Writes are split at line boundaries so interleaved
// worker batches stay line-valid JSONL on the coordinator side. Event
// posts are best-effort telemetry with their own short deadline; they
// never retry.
type eventForwarder struct {
	client *http.Client
	url    string

	mu  sync.Mutex
	buf bytes.Buffer
}

const eventFlushBytes = 64 << 10

func newEventForwarder(rt http.RoundTripper, url string) *eventForwarder {
	return &eventForwarder{
		client: &http.Client{Timeout: eventPostDeadline, Transport: rt},
		url:    url,
	}
}

func (f *eventForwarder) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.buf.Write(p)
	var send []byte
	if f.buf.Len() >= eventFlushBytes {
		send = f.takeLinesLocked()
	}
	f.mu.Unlock()
	f.post(send)
	return len(p), nil
}

// takeLinesLocked cuts the buffer at the last newline and returns the
// complete lines, leaving any partial line buffered.
func (f *eventForwarder) takeLinesLocked() []byte {
	b := f.buf.Bytes()
	cut := bytes.LastIndexByte(b, '\n')
	if cut < 0 {
		return nil
	}
	send := append([]byte(nil), b[:cut+1]...)
	rest := append([]byte(nil), b[cut+1:]...)
	f.buf.Reset()
	f.buf.Write(rest)
	return send
}

// Flush posts everything buffered, including a trailing partial line
// (only possible if the recorder was cut mid-write, which Close
// prevents).
func (f *eventForwarder) Flush() {
	f.mu.Lock()
	send := append([]byte(nil), f.buf.Bytes()...)
	f.buf.Reset()
	f.mu.Unlock()
	f.post(send)
}

func (f *eventForwarder) post(data []byte) {
	if len(data) == 0 {
		return
	}
	resp, err := f.client.Post(f.url, "application/jsonl", bytes.NewReader(data))
	if err != nil {
		return // events are best-effort telemetry
	}
	resp.Body.Close()
}
