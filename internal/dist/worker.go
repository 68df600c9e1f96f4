package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairmc/internal/dist/transport"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/search"
)

// ErrSpecMismatch reports that a grant's options hash does not match
// the options this worker rebuilt from the grant's spec: version skew
// between the worker and whoever planned the search. The CLI maps it to
// the usage exit status.
var ErrSpecMismatch = errors.New("dist: a grant's options hash does not match this worker's build")

// DefaultJoinTimeout bounds how long the lease endpoint may stay
// unreachable — not started yet, restarting, partitioned — before the
// worker gives up.
const DefaultJoinTimeout = 30 * time.Second

// Per-endpoint per-attempt deadlines: a heartbeat should fail fast, a
// lease call is held open for up to LeaseHold, a result upload may
// carry megabytes of report.
var workerDeadlines = map[string]time.Duration{
	PathLease:     10 * time.Second,
	PathHeartbeat: 5 * time.Second,
	PathResult:    60 * time.Second,
}

// eventPostDeadline bounds best-effort event batch uploads.
const eventPostDeadline = 15 * time.Second

// jobCacheSize bounds how many jobs a worker remembers (see
// worker.job). A job leaves the cache when the worker hears it is over;
// the bound is for the ones another worker finished.
const jobCacheSize = 16

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// URL is the jobs service's base URL (e.g. http://host:7171).
	URL string
	// Capacity is how many lease batches to run concurrently; 0 means 1.
	Capacity int
	// WorkDir holds the result spool: completed shard reports persisted
	// while their job is unreachable, replayed when the worker is next
	// granted work of that job, each job's in the subdirectory named
	// after it — jobs reuse shard indices. Empty disables it.
	WorkDir string
	// Lookup resolves the program name a grant carries to the program
	// body (e.g. an adapter around progs.Lookup).
	Lookup func(name string) (func(*engine.T), bool)
	// Metrics, when set, is the worker's live registry; deltas are
	// forwarded with every heartbeat and result.
	Metrics *obs.Metrics
	// Logf, when set, receives one-line operational logs.
	Logf func(format string, args ...any)
	// Stop, when closed, makes the worker abandon its shards and
	// return nil.
	Stop <-chan struct{}

	// Retry is the backoff policy shared by every call (leases,
	// heartbeats, result uploads). A zero value uses
	// transport.DefaultPolicy.
	Retry transport.Policy
	// JoinTimeout is how long URL may stay unreachable before the worker
	// gives up; 0 means DefaultJoinTimeout.
	JoinTimeout time.Duration
	// Transport, when set, replaces the underlying HTTP transport —
	// the seam where faultinject.RoundTripper plugs in.
	Transport http.RoundTripper
	// FS, when set, replaces the filesystem used for the result spool —
	// the seam where faultinject.FSInjector plugs in. Nil means the
	// real filesystem.
	FS fsx.FS
}

// workerSeq tells apart the workers of one process started in the same
// nanosecond.
var workerSeq atomic.Int64

// worker is the state of one RunWorker call.
type worker struct {
	cfg WorkerConfig
	// id is the worker's name for itself, unique to this call: what
	// coordinators exclude by, and the prefix of its idempotency keys.
	id string
	// tc is rooted at cfg.URL and makes the lease calls; a job's client
	// is a copy rooted at the job's path.
	tc *transport.Client
	// ctx ends when cfg.Stop closes or the first slot returns.
	ctx context.Context

	// missing serializes cache misses, so two slots granted work of a new
	// job build it (and replay its spool) once.
	missing sync.Mutex

	mu   sync.Mutex
	jobs map[string]*workerJob // by Path and OptionsHash
	prev obs.Snapshot          // the registry as of the last delta taken

	hbSeq atomic.Int64 // heartbeat idempotency sequence
}

// workerJob is what a worker keeps about a search it has been granted
// work of, so only the first grant pays for it.
type workerJob struct {
	w       *worker
	key     string
	name    string // the job's, for logs
	tc      *transport.Client
	hash    uint64
	spec    []byte // the grant's spec, as it came
	opts    search.Options
	prog    func(*engine.T)
	ttl     time.Duration
	workDir string
	events  *eventForwarder // nil unless the job wants events
	// gone is set when the job's path answered 404: whatever the worker
	// still holds of it is dropped, not posted and not spooled.
	gone atomic.Bool
	// frameHint is about the largest result frame so far: the next one
	// is encoded into a buffer that size.
	frameHint atomic.Int64
}

// RunWorker is the one worker loop: lease from the jobs service at
// cfg.URL, run the granted shards, post them to the path the grant
// names, repeat — until a lease is answered "done" or cfg.Stop closes
// (returning nil). Completed reports whose upload fails are spooled to
// cfg.WorkDir and replayed the next time the worker is granted work of
// that job. It returns an error only when cfg.URL stays unreachable for
// cfg.JoinTimeout — what a worker started before its service rides out
// — or a grant is not for this build (ErrSpecMismatch, an unknown
// program).
func RunWorker(cfg WorkerConfig) error {
	if cfg.Lookup == nil {
		return errors.New("dist: worker needs a program Lookup")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
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
	// a lease call held open for this worker.
	ctx, cancel := transport.StopContext(cfg.Stop)
	defer cancel()

	breaker := &transport.Breaker{}
	httpc := &http.Client{Transport: cfg.Transport} // deadlines are per-endpoint, not global
	w := &worker{
		cfg: cfg,
		id:  fmt.Sprintf("w%d-%s-%d", os.Getpid(), strconv.FormatInt(time.Now().UnixNano(), 36), workerSeq.Add(1)),
		tc: &transport.Client{
			Base:      cfg.URL,
			HTTP:      httpc,
			Policy:    cfg.Retry,
			Deadlines: workerDeadlines,
			Breaker:   breaker,
			Ctx:       ctx,
		},
		ctx:  ctx,
		jobs: map[string]*workerJob{},
	}
	if m := cfg.Metrics; m != nil {
		breaker.OnOpen = func() { m.BreakerOpens.Inc() }
		w.tc.OnRetry = func(string, int, error) { m.DistRetries.Inc() }
		w.prev = m.Snapshot()
	}
	cfg.Logf("dist: leasing from %s as %s", cfg.URL, w.id)

	// One engine pool per capacity slot, for every job the slot serves
	// (the pool takes the program per run).
	pools := make([]engine.Pool, cfg.Capacity)
	errs := make(chan error, cfg.Capacity)
	for i := range pools {
		go func() { errs <- w.slot(&pools[i]) }()
	}
	var first error
	for range pools {
		// Whatever ended one slot — done, Stop, giving up — ends them all.
		if err := <-errs; err != nil && first == nil {
			first = err
		}
		cancel()
	}
	for i := range pools {
		pools[i].Close()
	}
	return first
}

// over reports whether the worker is shutting down.
func (w *worker) over() bool { return w.ctx.Err() != nil }

// sleep pauses for d, cut short when the worker shuts down.
func (w *worker) sleep(d time.Duration) { SleepStop(d, w.ctx.Done()) }

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

// slot is one capacity slot: lease, run (on the slot's engine pool),
// post, repeat. The lease call is also the reachability probe — one
// attempt per call, past the breaker, paced by the retry policy — and
// cfg.URL failing it for JoinTimeout on end is the one way a worker
// gives up.
func (w *worker) slot(pool *engine.Pool) error {
	failures, down := 0, time.Time{} // the current run of failed lease calls, and when it began
	for !w.over() {
		asked := time.Now()
		resp, err := w.lease()
		if w.over() {
			break
		}
		if err != nil {
			if errors.Is(err, por.ErrVersion) {
				return fmt.Errorf("dist: a grant written by another version: %w", err)
			}
			if !transport.Classify(err) {
				return fmt.Errorf("dist: lease refused: %w", err)
			}
			if failures++; failures == 1 {
				down = asked
			}
			backoff := w.cfg.Retry.Backoff(PathLease, failures)
			var shed *transport.StatusError
			if errors.As(err, &shed) && shed.RetryAfter > 0 {
				backoff = shed.RetryAfter
			}
			if time.Since(down)+backoff > w.cfg.JoinTimeout {
				// A spool (if any) stays on disk for the next worker pointed
				// at this workdir.
				return fmt.Errorf("dist: %s unreachable for %s (%d lease attempts): %w",
					w.cfg.URL, w.cfg.JoinTimeout, failures, err)
			}
			w.sleep(backoff)
			continue
		}
		// An answered lease call proves the peer reachable: don't fail-fast
		// the posts that follow.
		failures = 0
		w.tc.Breaker.Reset()
		switch resp.Status {
		case LeaseDone:
			return nil
		case LeaseWait:
			// The call was held open for LeaseHold before it was answered
			// so; the pause only paces a peer that answers at once.
			w.sleep(w.cfg.Retry.Backoff(PathLease, 1) - time.Since(asked))
		case LeaseWork:
			j, replayed, err := w.job(resp)
			if err != nil {
				return err
			}
			// A grant the spool just answered needs no second run.
			j.runWave(pool, slices.DeleteFunc(resp.Grants, func(g Grant) bool { return replayed[g.Shard.Index] }))
		default:
			return fmt.Errorf("dist: unknown lease status %q", resp.Status)
		}
	}
	return nil
}

// lease makes one lease call. An answer in another version's encoding
// is not retried.
func (w *worker) lease() (*LeaseResponse, error) {
	body, _ := json.Marshal(LeaseRequest{WorkerID: w.id, Codec: por.CodecVersion}) // plain data: cannot fail
	var resp *LeaseResponse
	err := w.tc.Post(PathLease, body, func(data []byte) (err error) {
		if resp, err = DecodeLease(data); errors.Is(err, por.ErrVersion) {
			err = fmt.Errorf("%w: %w", transport.ErrTerminal, err)
		}
		return err
	}, transport.Call{NoBreaker: true, MaxAttempts: 1})
	return resp, err
}

// job returns what the worker knows about the job a grant names,
// building it on a miss: the spec's options decoded and verified against
// the plan's hash, the program resolved, the job's directory made and
// its spool replayed (replayed: the shards that was done for).
// The cache is keyed by where the job is served and what it searches,
// so a path reused for another search is a miss; a grant whose spec
// bytes are the cached job's reuses its options.
func (w *worker) job(resp *LeaseResponse) (j *workerJob, replayed map[int]bool, err error) {
	key := resp.Path + "#" + strconv.FormatUint(resp.OptionsHash, 16)
	cached := func() *workerJob {
		w.mu.Lock()
		defer w.mu.Unlock()
		if j := w.jobs[key]; j != nil && bytes.Equal(j.spec, resp.Spec) {
			return j
		}
		return nil
	}
	if j = cached(); j != nil {
		return j, nil, nil
	}
	w.missing.Lock()
	defer w.missing.Unlock()
	if j = cached(); j != nil {
		return j, nil, nil
	}
	tc := *w.tc
	tc.Base += resp.Path
	j = &workerJob{
		w: w, key: key, name: resp.Job, tc: &tc,
		hash: resp.OptionsHash,
		spec: bytes.Clone(resp.Spec),
		ttl:  time.Duration(resp.LeaseTTLMS) * time.Millisecond,
	}
	if err := json.Unmarshal(resp.Spec, &j.opts); err != nil || !filepath.IsLocal(resp.Job) {
		return nil, nil, fmt.Errorf("dist: malformed grant (job %q, spec: %v)", resp.Job, err)
	}
	if j.ttl <= 0 {
		j.ttl = DefaultLeaseTTL
	}
	if got := search.OptionsHash(&j.opts); got != j.hash {
		return nil, nil, fmt.Errorf("%w (%s: plan %#x, worker %#x)", ErrSpecMismatch, j.name, j.hash, got)
	}
	var ok bool
	if j.prog, ok = w.cfg.Lookup(j.opts.ProgramName); !ok {
		return nil, nil, fmt.Errorf("dist: %s wants program %q, which this worker does not have", j.name, j.opts.ProgramName)
	}
	j.opts.Metrics = w.cfg.Metrics
	if resp.WantEvents {
		j.events = newEventForwarder(w.cfg.Transport, tc.Base+PathEvents)
	}
	if w.cfg.WorkDir != "" {
		j.workDir = filepath.Join(w.cfg.WorkDir, resp.Job)
		if err := w.cfg.FS.MkdirAll(j.workDir, 0o755); err != nil {
			w.cfg.Logf("dist: %s: no spool: %v", j.name, err)
			j.workDir = ""
		}
	}
	w.mu.Lock()
	if len(w.jobs) >= jobCacheSize {
		for k := range w.jobs {
			delete(w.jobs, k) // any: one in use is rebuilt by its next grant
			break
		}
	}
	w.jobs[key] = j
	w.mu.Unlock()
	w.cfg.Logf("dist: granted work of %s: program %s, lease TTL %s", j.name, j.opts.ProgramName, j.ttl)
	return j, j.replaySpool(), nil
}

// forget drops the job from the cache: it is over, or its next grant
// must replay what was just spooled.
func (j *workerJob) forget() {
	j.w.mu.Lock()
	if j.w.jobs[j.key] == j {
		delete(j.w.jobs, j.key)
	}
	j.w.mu.Unlock()
}

// lost reports whether err is the job's path answering 404 — the job is
// gone: cancelled, finished and unmounted, or never there — and if so
// marks it.
func (j *workerJob) lost(err error) bool {
	var se *transport.StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
		return false
	}
	if !j.gone.Swap(true) {
		j.w.cfg.Logf("dist: %s is gone; dropping its work", j.name)
		j.forget()
	}
	return true
}

// takeDelta returns what the worker's registry has counted since the
// last delta taken, to ride on a heartbeat or a result post (nil
// without a registry). Each increment is delivered exactly once: a post
// that failed gives its delta back.
func (w *worker) takeDelta() *obs.Snapshot {
	if w.cfg.Metrics == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.cfg.Metrics.Snapshot()
	d := cur.Sub(w.prev)
	w.prev = cur
	return &d
}

// giveBack returns an undelivered delta, so the next post carries it.
func (w *worker) giveBack(d *obs.Snapshot) {
	if d != nil {
		w.mu.Lock()
		w.prev = w.prev.Sub(*d)
		w.mu.Unlock()
	}
}

// replaySpool posts results spooled by an earlier grant of this job (or
// a previous worker process sharing this workdir) so a restart or
// partition loses zero completed executions, and returns the shards it
// did that for. Entries for a different search are left alone; replayed
// entries are deleted once acknowledged — whether accepted or already
// decided elsewhere.
func (j *workerJob) replaySpool() (replayed map[int]bool) {
	if j.workDir == "" {
		return nil
	}
	w, logf := j.w, j.w.cfg.Logf
	entries, corrupt, skipped, err := spoolList(w.cfg.FS, j.workDir, j.hash, j.opts.ProgramName)
	if err != nil {
		logf("dist: scanning spool: %v", err)
		return nil
	}
	for _, msg := range skipped {
		logf("dist: spool: skipping %s", msg)
	}
	// A corrupt entry (torn write or bit rot caught by the CRC footer)
	// is not replayable and must not fail the whole replay: surface it
	// as an advisory WorkerFailure — no lease, no attempt charged, no
	// worker exclusion — then discard the file so it is reported once.
	for _, bad := range corrupt {
		logf("dist: spool: corrupt entry %s (%s)", bad.Name, bad.Reason)
		req := ResultRequest{WorkerID: w.id, Results: []ShardResult{{
			Shard:   bad.Shard,
			Failure: fmt.Sprintf("corrupt spool entry %s: %s", bad.Name, bad.Reason),
		}}}
		key := fmt.Sprintf("res-%s-spoolbad-%s", w.id, bad.Name)
		if err := j.postResults(&req, &ResultResponse{}, key); err != nil {
			logf("dist: reporting corrupt spool entry %s: %v", bad.Name, err)
			continue // keep the file; a later replay re-reports
		}
		if bad.Shard >= 0 {
			if rerr := spoolRemove(w.cfg.FS, j.workDir, bad.Shard); rerr != nil {
				logf("dist: removing corrupt spool entry %s: %v", bad.Name, rerr)
			}
		}
	}
	for _, e := range entries {
		resp := &ResultResponse{}
		req := ResultRequest{WorkerID: w.id, Results: []ShardResult{{LeaseID: "spool-replay", Shard: e.Shard, Report: e.Report}}}
		key := fmt.Sprintf("res-%s-spool-%d", w.id, e.Shard)
		if err := j.postResults(&req, resp, key); err != nil {
			logf("dist: replaying spooled shard %d: %v", e.Shard, err)
			continue // still spooled; a later replay retries
		}
		if rerr := spoolRemove(w.cfg.FS, j.workDir, e.Shard); rerr != nil {
			logf("dist: removing spooled shard %d: %v", e.Shard, rerr)
		}
		logf("dist: replayed spooled shard %d (accepted=%v)", e.Shard, slices.Contains(resp.Accepted, true))
		if replayed == nil {
			replayed = map[int]bool{}
		}
		replayed[e.Shard] = true
	}
	return replayed
}

// wave is the leases of one lease call while the worker holds them:
// each with the channel that stops its shard, running or still waiting
// its turn.
type wave struct {
	mu    sync.Mutex
	stops map[string]chan struct{}
}

// cancel stops the shards under the given leases and stops
// heartbeating them. Closing and forgetting happen together under mu,
// so no stop channel closes twice.
func (v *wave) cancel(leaseIDs ...string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, id := range leaseIDs {
		if ch, ok := v.stops[id]; ok {
			close(ch)
			delete(v.stops, id)
		}
	}
}

// live lists the leases not cancelled so far.
func (v *wave) live() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	ids := make([]string, 0, len(v.stops))
	for id := range v.stops {
		ids = append(ids, id)
	}
	return ids
}

// keepAlive heartbeats the wave's leases until over closes. It is also
// the wave's watcher of the worker shutting down: a stopped worker
// abandons whatever shards it holds.
func (j *workerJob) keepAlive(v *wave, over <-chan struct{}) {
	iv := j.ttl / 3
	if iv < 20*time.Millisecond {
		iv = 20 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-over:
			return
		case <-j.w.ctx.Done():
			v.cancel(v.live()...)
			return
		case <-t.C:
			j.heartbeat(v)
		}
	}
}

// heartbeat extends the wave's leases and forwards telemetry. Each
// heartbeat carries a fresh idempotency key, so a duplicated delivery
// merges its metrics delta exactly once.
func (j *workerJob) heartbeat(v *wave) {
	w := j.w
	ids := v.live()
	if len(ids) == 0 {
		return
	}
	key := fmt.Sprintf("hb-%s-%d", w.id, w.hbSeq.Add(1))
	delta := w.takeDelta()
	resp := &HeartbeatResponse{}
	body, _ := json.Marshal(HeartbeatRequest{WorkerID: w.id, LeaseIDs: ids, Metrics: delta}) // plain data: cannot fail
	err := j.tc.Post(PathHeartbeat, body, func(data []byte) error { return json.Unmarshal(data, resp) },
		transport.Call{Key: key, MaxAttempts: 2})
	if err != nil {
		w.giveBack(delta)
		if j.lost(err) {
			v.cancel(ids...)
		} else if !w.over() {
			w.cfg.Logf("dist: heartbeat: %v", err)
		}
		return
	}
	// Expired and requeued, or past the point where the search stopped.
	v.cancel(resp.Cancelled...)
	if resp.Done {
		j.forget()
	}
}

// runWave runs the shards of one lease call in plan order on the
// slot's engine pool and posts their outcomes as one result batch.
// Every lease of the batch is heartbeated from the start until the
// batch is posted, so the ones still waiting their turn are kept alive
// too. The wave's trace events are flushed before its results are
// posted. Completed reports whose upload fails outright are spooled for
// replay — unless the job is gone.
func (j *workerJob) runWave(pool *engine.Pool, grants []Grant) {
	if len(grants) == 0 {
		return
	}
	w := j.w
	v := &wave{stops: make(map[string]chan struct{}, len(grants))}
	stops := make([]chan struct{}, len(grants))
	for i, g := range grants {
		stops[i] = make(chan struct{})
		v.stops[g.LeaseID] = stops[i]
	}
	posted := make(chan struct{})
	defer close(posted)
	go j.keepAlive(v, posted)

	opts := j.opts
	var rec *obs.Recorder
	if j.events != nil {
		// Shards emit in bursts; the recorder's bounded queue keeps
		// emission non-blocking end to end.
		rec = obs.NewRecorder(j.events, 1<<14)
		opts.EventSink = rec
	}
	results := make([]ShardResult, 0, len(grants))
	for i, g := range grants {
		if w.over() || j.gone.Load() {
			break
		}
		if res, ok := j.runShard(pool, opts, g, stops[i]); ok {
			results = append(results, res)
		}
	}
	if rec != nil {
		rec.Close()
		j.events.Flush()
	}
	if len(results) == 0 || j.gone.Load() {
		return
	}

	resp := &ResultResponse{}
	delta := w.takeDelta()
	key := fmt.Sprintf("res-%s-%s", w.id, results[0].LeaseID)
	if err := j.postResults(&ResultRequest{WorkerID: w.id, Results: results, Metrics: delta}, resp, key); err != nil {
		w.giveBack(delta)
		if j.lost(err) {
			return
		}
		w.cfg.Logf("dist: posting %d shard results (%d..): %v", len(results), results[0].Shard, err)
		j.spool(results)
		return
	}
	if resp.Done {
		j.forget()
	}
}

// postResults posts a result batch, encoded once into one frame, under
// the idempotency key key and decodes the acknowledgement into resp.
func (j *workerJob) postResults(req *ResultRequest, resp *ResultResponse, key string) error {
	body, err := req.Encode(make([]byte, 0, j.frameHint.Load()))
	if err != nil {
		return err
	}
	if n := int64(len(body)); n > j.frameHint.Load() {
		j.frameHint.Store(n)
	}
	return j.tc.Post(PathResult, body, func(data []byte) error { return json.Unmarshal(data, resp) }, transport.Call{Key: key})
}

// spool persists the completed reports of a batch that could not be
// posted — the work is done; don't lose it to a dead link — and drops
// the job from the cache, so that its next grant replays them. Failure
// reports are not spooled: lease expiry already requeues the shard
// elsewhere.
func (j *workerJob) spool(results []ShardResult) {
	if j.workDir == "" {
		return
	}
	w := j.w
	for _, res := range results {
		if res.Report == nil {
			continue
		}
		e := search.ShardDoneRec{Job: j.opts.ProgramName, OptionsHash: j.hash, Shard: res.Shard, Report: res.Report}
		if err := spoolWrite(w.cfg.FS, j.workDir, &e); err != nil {
			w.cfg.Logf("dist: spooling shard %d: %v", res.Shard, err)
			continue
		}
		if w.cfg.Metrics != nil {
			w.cfg.Metrics.SpooledResults.Inc()
		}
		w.cfg.Logf("dist: spooled shard %d result for replay", res.Shard)
	}
	j.forget()
}

// runShard executes one leased shard and returns its outcome for the
// batch. A panic in the program (or the engine) becomes a structured
// failure so the coordinator can retry the shard elsewhere. ok is false
// for a shard cancelled before or while it ran (lease lost or worker
// stopping): the partial report must not be merged, and the coordinator
// has already requeued or cut the shard. A worker keeps no position
// inside a shard: one that restarts loses the shards it had in flight,
// and lease expiry hands them out again.
func (j *workerJob) runShard(pool *engine.Pool, opts search.Options, g Grant, stop <-chan struct{}) (res ShardResult, ok bool) {
	sh := g.Shard
	res = ShardResult{LeaseID: g.LeaseID, Shard: sh.Index}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Report = nil
				res.Failure = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		res.Report = search.RunShardOn(pool, j.prog, opts, sh, stop)
	}()
	if res.Failure != "" {
		j.w.cfg.Logf("dist: shard %d crashed: %.120s", sh.Index, res.Failure)
	} else if res.Report != nil && res.Report.Interrupted {
		return res, false
	}
	return res, true
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
