package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairmc/internal/dist/transport"
	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// Coordinator defaults.
const (
	// DefaultLeaseTTL is how long a granted or heartbeat-extended lease
	// stays valid.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultMaxShardAttempts bounds how many workers may fail one
	// shard (lease expiry or posted failure) before it is abandoned.
	DefaultMaxShardAttempts = 3
	// idemCacheSize bounds the idempotency-key → response cache
	// (FIFO); at one result per lease batch plus heartbeats in flight,
	// 1024 comfortably outlives any retry window.
	idemCacheSize = 1024
)

// CoordinatorConfig configures a distributed search.
type CoordinatorConfig struct {
	// Prog is the program under test.
	Prog func(*engine.T)
	// Options is the full search configuration, including budgets and
	// the confirmation pass; Options.ProgramName is the program's
	// registry name, which workers look the program up by. TimeLimit
	// must be zero: a wall-clock budget cannot be distributed
	// deterministically.
	Options search.Options
	// RefParallelism selects which local run the merged report mirrors
	// (byte-identical to Parallelism=RefParallelism); it also sets the
	// shard granularity. 0 means 1.
	RefParallelism int
	// LeaseTTL and MaxShardAttempts tune the robustness machinery;
	// zero values use the defaults above.
	LeaseTTL         time.Duration
	MaxShardAttempts int
	// Prior, when set, seeds the coordinator with an existing plan and
	// already-decided shards — how the jobs layer hands WAL-replayed
	// progress to a restarted coordinator so ledger-completed shards are
	// never re-explored. The caller is responsible for the plan matching
	// Options (the jobs layer validates via OptionsHash before
	// constructing it).
	Prior *Prior
	// OnShardGrant, when set, observes the shards one lease call
	// granted (called under the coordinator lock). The jobs layer
	// records grants in the ledger as an audit trail.
	OnShardGrant func(shards []int, worker string)
	// OnWake, when set, is told (under the coordinator lock) whenever a
	// lease call should look again: the plan grew, a shard was requeued,
	// the search finished. The jobs layer parks lease calls and asks
	// every mounted coordinator on their behalf.
	OnWake func()
	// OnShardDone, when set, is called under the coordinator lock
	// BEFORE the decided shards of one result call (completed reports)
	// or one abandonment are applied to the merge — the write-ahead
	// point. If it returns an error NONE of the decisions is applied:
	// the jobs layer returns an error when its ledger can no longer
	// commit, and a shard decision that isn't durable must not reach
	// the merger, or a restart would disagree with what this process
	// reported. The decisions are the service's shard_done records less
	// their job and options hash, which the owner fills in.
	OnShardDone func(decided []search.ShardDoneRec) error
	// Metrics, when set, aggregates worker telemetry deltas and the
	// coordinator's own confirmation-pass work.
	Metrics *obs.Metrics
	// EventWriter, when set, receives the JSONL trace-event streams
	// workers forward (interleaved at batch granularity).
	EventWriter io.Writer
	// Logf, when set, receives one-line operational logs.
	Logf func(format string, args ...any)
}

type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDecided // by a report, or abandoned
)

// Prior is pre-decided progress injected into a new coordinator (see
// CoordinatorConfig.Prior).
type Prior struct {
	// Plan is the shard plan the progress belongs to, as planned: a DPOR
	// plan is its single root shard, regrown by folding Done — never the
	// plan a previous coordinator grew.
	Plan *search.Plan
	// Done are the decided shards in ledger order, folded over Plan
	// (search.ShardMerger.Fold); a nil report marks a shard abandoned in
	// a previous incarnation.
	Done []search.ShardDoneRec
	// Failures carries forward prior worker failures (report context).
	Failures []search.WorkerFailure
}

type shardState struct {
	status   shardStatus
	attempts int             // failed attempts (expiries + posted failures)
	excluded map[string]bool // workers that failed this shard (nil: none)
	leaseID  string          // current lease when status == shardLeased
}

type lease struct {
	id      string
	shard   int
	worker  string
	expires time.Time
}

// Coordinator owns the shard plan of one distributed search: the jobs
// service mounts one per running job, grants its shards (Lease) and
// routes the job's worker requests to Handler. Create with
// NewCoordinator and Wait for the merged report.
type Coordinator struct {
	cfg  CoordinatorConfig
	spec []byte // what a grant carries: the JSON of cfg.Options.Spec()
	plan *search.Plan

	mu       sync.Mutex
	merger   *search.ShardMerger
	shards   []shardState
	leases   map[string]*lease
	failures []search.WorkerFailure
	seq      int    // lease id generator ...
	epoch    string // ... and the suffix that makes the ids this incarnation's own

	// planned mirrors len(plan.Shards) for readers that must not take
	// mu (the jobs server's status handler, see Planned).
	planned atomic.Int64
	// frameHint is the largest grant frame so far: the next one is
	// encoded into a buffer that size.
	frameHint int

	// Idempotency cache: key → marshaled response, FIFO-bounded. A
	// retried (or chaos-duplicated) result/heartbeat POST replays the
	// original response instead of re-applying its effect. Guarded by
	// mu, like the state it protects.
	idem      map[string][]byte
	idemOrder []string

	start time.Time

	finished bool
	done     chan struct{}
	finalRep *search.Report
}

// NewCoordinator plans the search (or adopts cfg.Prior's plan and
// decided shards) and returns a coordinator ready to serve.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Prog == nil || cfg.Options.ProgramName == "" {
		return nil, errors.New("dist: coordinator needs Prog and Options.ProgramName")
	}
	if cfg.Options.TimeLimit != 0 {
		return nil, errors.New("dist: TimeLimit cannot be distributed deterministically; use MaxExecutions")
	}
	if cfg.RefParallelism < 1 {
		cfg.RefParallelism = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxShardAttempts <= 0 {
		cfg.MaxShardAttempts = DefaultMaxShardAttempts
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	// The coordinator's own search work — the merge (pruned DPOR
	// reversals) and the confirmation pass — counts into its registry.
	// (The spec carries no registry, so workers are unaffected.)
	cfg.Options.Metrics = cfg.Metrics

	now := time.Now()
	spec, _ := json.Marshal(cfg.Options.Spec()) // plain data: cannot fail
	c := &Coordinator{
		cfg:    cfg,
		spec:   spec,
		leases: map[string]*lease{},
		idem:   map[string][]byte{},
		start:  now,
		epoch:  "-" + strconv.FormatInt(now.UnixNano(), 36),
		done:   make(chan struct{}),
	}

	var done []search.ShardDoneRec
	if p := cfg.Prior; p != nil && p.Plan != nil {
		// WAL-replayed progress from the jobs layer: the recorded plan
		// (never re-planned — the plan is part of what was committed) and
		// its decided shards, folded over it as a checkpoint's are, which
		// reconstructs exactly the pre-crash merge state.
		c.plan, done = p.Plan, p.Done
		c.failures = append(c.failures, p.Failures...)
	} else {
		plan, err := search.PlanShards(cfg.Prog, cfg.Options, cfg.RefParallelism)
		if err != nil {
			return nil, err
		}
		c.plan = plan
	}
	c.merger = search.NewShardMerger(c.cfg.Options, c.plan)
	c.merger.Fold(done...)
	c.growShardsLocked()
	decided := 0
	for _, d := range done {
		if d.Shard >= 0 && d.Shard < len(c.shards) && c.shards[d.Shard].status == shardPending && c.merger.Decided(d.Shard) {
			c.markLocked(d.Shard)
			decided++
		}
	}
	if len(done) > 0 {
		c.cfg.Logf("dist: resumed from prior progress: %d/%d shards already decided", decided, len(c.plan.Shards))
	}
	go c.sweep()
	c.mu.Lock()
	c.checkDoneLocked()
	c.mu.Unlock()
	return c, nil
}

// Handler serves the job's worker routes — heartbeat, result and
// events — for its owner to mount under the job's path. Shards are
// granted by the owner's lease endpoint (Lease).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathResult, c.handleResult)
	mux.HandleFunc(PathEvents, c.handleEvents)
	return mux
}

// idemPutLocked caches a response under a key, evicting FIFO.
func (c *Coordinator) idemPutLocked(key string, data []byte) {
	if key == "" {
		return
	}
	if _, exists := c.idem[key]; !exists {
		c.idemOrder = append(c.idemOrder, key)
		if len(c.idemOrder) > idemCacheSize {
			delete(c.idem, c.idemOrder[0])
			c.idemOrder = c.idemOrder[1:]
		}
	}
	c.idem[key] = data
}

// replayJSON writes an already-encoded response (a cached idempotent
// one, or one encoded under the lock) verbatim.
func replayJSON(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// Wait blocks until the search is complete (or interrupted) and
// returns the merged report.
func (c *Coordinator) Wait() *search.Report {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finalRep
}

// Interrupt stops the search at the current merge point, marking the
// report Interrupted. Decided shards have already been through
// OnShardDone, so an owner that recorded them there can seed a later
// coordinator with them (Prior).
func (c *Coordinator) Interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.finishLocked()
	rep := c.merger.Finish(time.Since(c.start), c.failures)
	rep.Interrupted = true
	c.sealLocked(rep)
}

// Planned is how many shards the plan holds right now. It takes no
// lock, so a caller holding locks of its own (the jobs server, whose
// lock orders after the coordinator's) may call it.
func (c *Coordinator) Planned() int { return int(c.planned.Load()) }

// finishLocked marks the search over and answers every parked lease
// call.
func (c *Coordinator) finishLocked() {
	c.finished = true
	c.wakeLocked()
}

// wakeLocked makes the owner's parked lease calls look again (OnWake).
func (c *Coordinator) wakeLocked() {
	if c.cfg.OnWake != nil {
		c.cfg.OnWake()
	}
}

// checkDoneLocked finalizes the search once the merge is complete.
// The confirmation pass runs outside the lock (it executes the
// program), then sealLocked publishes the report.
func (c *Coordinator) checkDoneLocked() {
	if c.finished || !c.merger.Done() {
		return
	}
	c.finishLocked()
	rep := c.merger.Finish(time.Since(c.start), c.failures)
	go func() {
		search.ConfirmFindings(c.cfg.Prog, c.cfg.Options, rep)
		c.mu.Lock()
		c.sealLocked(rep)
		c.mu.Unlock()
	}()
}

// sealLocked publishes the final report and releases Wait.
func (c *Coordinator) sealLocked(rep *search.Report) {
	c.finalRep = rep
	close(c.done)
}

// sweep expires leases in the background so crashed workers are
// detected even while no requests arrive.
func (c *Coordinator) sweep() {
	iv := c.cfg.LeaseTTL / 4
	if iv < 50*time.Millisecond {
		iv = 50 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// expireLocked requeues the shards of every expired lease.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		c.cfg.Logf("dist: lease %s (shard %d, worker %s) expired", id, l.shard, l.worker)
		c.failShardLocked(l.shard, l.worker,
			fmt.Sprintf("lease expired after %s (worker %s unreachable)", c.cfg.LeaseTTL, l.worker))
	}
}

// failShardLocked records one failed attempt at a shard and requeues
// or abandons it. Already-decided shards are left alone (a lease can
// expire after a late result completed the shard).
func (c *Coordinator) failShardLocked(idx int, worker, reason string) {
	sh := &c.shards[idx]
	if sh.status == shardDecided {
		return
	}
	sh.attempts++
	if sh.excluded == nil {
		sh.excluded = map[string]bool{}
	}
	sh.excluded[worker] = true
	sh.leaseID = ""
	c.failures = append(c.failures, search.WorkerFailure{
		Mode:    "dist",
		Unit:    int64(idx),
		Attempt: sh.attempts,
		Panic:   reason,
	})
	if m := c.cfg.Metrics; m != nil {
		m.WorkerRetries.Inc()
	}
	if sh.attempts >= c.cfg.MaxShardAttempts {
		if c.cfg.OnShardDone != nil {
			if err := c.cfg.OnShardDone([]search.ShardDoneRec{{Shard: idx, Abandoned: reason}}); err != nil {
				// The abandonment cannot be made durable; leave the shard
				// pending rather than let memory outrun the ledger. (The
				// jobs layer only fails the hook when its ledger is dead,
				// at which point this coordinator is on its way out.)
				c.cfg.Logf("dist: shard %d abandonment not committed: %v", idx, err)
				c.requeueLocked(idx)
				return
			}
		}
		c.decideLocked(idx, nil)
		c.growShardsLocked()
		c.cfg.Logf("dist: shard %d abandoned after %d attempts", idx, sh.attempts)
		c.checkDoneLocked()
		return
	}
	c.requeueLocked(idx)
}

// decideLocked marks a shard decided — by its report, or abandoned when
// rep is nil — and hands the decision to the merge.
func (c *Coordinator) decideLocked(idx int, rep *search.Report) {
	c.markLocked(idx)
	c.merger.Offer(idx, rep)
}

// markLocked marks a shard decided.
func (c *Coordinator) markLocked(idx int) {
	c.shards[idx].status, c.shards[idx].leaseID = shardDecided, ""
}

// requeueLocked makes a shard grantable again and tells parked lease
// calls.
func (c *Coordinator) requeueLocked(idx int) {
	c.shards[idx].status = shardPending
	c.shards[idx].leaseID = ""
	c.wakeLocked()
}

// growShardsLocked extends the per-shard lease state to cover shards
// the merger appended to the plan (DPOR work-unit spawns), publishes
// the new plan size and wakes parked lease calls. Must run after
// merger.Offer so newly planned shards become leasable.
func (c *Coordinator) growShardsLocked() {
	if len(c.shards) == len(c.plan.Shards) {
		return
	}
	for len(c.shards) < len(c.plan.Shards) {
		c.shards = append(c.shards, shardState{})
	}
	c.planned.Store(int64(len(c.plan.Shards)))
	c.wakeLocked()
}

// nextLeaseID names a lease. The name carries this coordinator's start
// time (epoch): a worker that outlives a restart keeps using the names
// the previous incarnation gave it — in heartbeats and in the
// idempotency keys of its result posts — and they must not meet this
// one's.
func (c *Coordinator) nextLeaseID() string {
	c.seq++
	return "l" + strconv.Itoa(c.seq) + c.epoch
}

// --- HTTP handlers ---

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// Lease answers one lease request as of now: the response's frame
// (encoded under the lock — a granted DPOR unit is emptied in place
// once it merges) and its status. It grants the first grantable shard
// below the merge horizon, and when that is a single-execution DPOR
// unit every further one up to LeaseBatch: a wave of the frontier per
// round trip. Subtree and range shards go one per call, so workers
// still share them. A grant carries the search it belongs to, under
// the name and the mount point the owner serves this coordinator at
// (job, path) — the jobs service calls this for each job it has mounted
// and answers a worker with the first grant.
func (c *Coordinator) Lease(worker, job, path string) (data []byte, status string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	resp := LeaseResponse{Status: LeaseDone}
	var granted []int
	if !c.finished {
		// Everything below Merged is decided; everything at or past the
		// horizon never will be.
		for idx, horizon := c.merger.Merged(), c.merger.Horizon(); idx < horizon; idx++ {
			sh := &c.shards[idx]
			if sh.status == shardDecided {
				continue
			}
			resp.Status = LeaseWait
			if sh.status == shardLeased || sh.excluded[worker] {
				continue
			}
			if granted == nil {
				n := 1
				if c.plan.Shards[idx].Unit != nil {
					n = LeaseBatch
				}
				granted, resp.Grants = make([]int, 0, n), make([]Grant, 0, n)
			}
			l := &lease{id: c.nextLeaseID(), shard: idx, worker: worker, expires: now.Add(c.cfg.LeaseTTL)}
			c.leases[l.id] = l
			sh.status = shardLeased
			sh.leaseID = l.id
			granted = append(granted, idx)
			resp.Grants = append(resp.Grants, Grant{LeaseID: l.id, Shard: c.plan.Shards[idx]})
			if c.plan.Shards[idx].Unit == nil || len(granted) == LeaseBatch {
				break
			}
		}
	}
	if len(granted) > 0 {
		resp.Status = LeaseWork
		resp.Job, resp.Path = job, path
		resp.Spec, resp.OptionsHash = c.spec, c.plan.OptionsHash
		resp.LeaseTTLMS = int64(c.cfg.LeaseTTL / time.Millisecond)
		resp.WantEvents = c.cfg.EventWriter != nil
		if c.cfg.OnShardGrant != nil {
			c.cfg.OnShardGrant(granted, worker)
		}
		c.cfg.Logf("dist: %d shards (%d..%d) leased to worker %s", len(granted), granted[0], granted[len(granted)-1], worker)
	}
	data, _ = resp.Encode(make([]byte, 0, c.frameHint)) // shards this build planned: cannot fail
	c.frameHint = max(c.frameHint, len(data))
	return data, resp.Status
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	key := r.Header.Get(transport.IdempotencyKeyHeader)
	c.mu.Lock()
	defer c.mu.Unlock()
	if key != "" {
		if data, ok := c.idem[key]; ok {
			// Retried or duplicated delivery: the metrics delta was
			// already merged once; replay the original answer.
			replayJSON(w, data)
			return
		}
	}
	c.mergeMetricsLocked(req.Metrics)
	c.expireLocked(time.Now())
	resp := HeartbeatResponse{Done: c.finished}
	horizon := c.merger.Horizon()
	for _, id := range req.LeaseIDs {
		l, ok := c.leases[id]
		if !ok || l.worker != req.WorkerID {
			// Expired and requeued (or never ours): the worker must
			// abandon the shard; its late result would be rejected
			// only if another attempt finishes first.
			resp.Cancelled = append(resp.Cancelled, id)
			continue
		}
		if l.shard >= horizon || c.finished {
			// Dead work: past the merge's stop point.
			delete(c.leases, id)
			resp.Cancelled = append(resp.Cancelled, id)
			continue
		}
		l.expires = time.Now().Add(c.cfg.LeaseTTL)
	}
	c.writeIdemLocked(w, key, resp)
}

// mergeMetricsLocked folds a worker's telemetry delta into the
// registry. Callers have checked the request's idempotency key first: a
// retried or duplicated delivery must not be merged twice.
func (c *Coordinator) mergeMetricsLocked(delta *obs.Snapshot) {
	if delta != nil && c.cfg.Metrics != nil {
		c.cfg.Metrics.Merge(*delta)
	}
}

// writeIdemLocked writes a JSON response and caches it under the
// request's idempotency key (no-op for keyless requests).
func (c *Coordinator) writeIdemLocked(w http.ResponseWriter, key string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.idemPutLocked(key, data)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// resultKind is what the per-item rules make of one ShardResult.
type resultKind int

const (
	// resultLate: the shard was requeued and decided by another attempt,
	// or the search is over. Determinism is unaffected either way — the
	// merge consumes exactly one report per shard.
	resultLate resultKind = iota
	// resultAdvisory: a failure without the shard's current lease, so
	// nothing to requeue and nobody to blame — recorded for the report
	// without charging a shard attempt or excluding the worker. This is
	// how corrupt spool entries are surfaced (failing the replay, or
	// livelocking a single-worker search by self-exclusion, would punish
	// the messenger), and how a failure under a lease that already
	// expired is kept: the expiry charged it, and the shard may be out
	// on a new lease.
	resultAdvisory
	// resultFailed: the worker crashed on the shard, posted nothing, or
	// posted a report the merge refuses (search.ShardMerger.Check).
	resultFailed
	// resultInterrupted: a cancelled shard must not be merged; it goes
	// back as if the lease had lapsed, without excluding the worker.
	resultInterrupted
	// resultComplete: a report for an undecided shard.
	resultComplete
)

// advisory reports a failure posted without a lease (see
// resultAdvisory); its Shard names no lease state and may be -1.
func (it *ShardResult) advisory() bool { return it.LeaseID == "" && it.Failure != "" }

// classifyLocked applies the per-item rules. An item that fails — a
// posted failure, an empty result, a report the merge refuses — leaves
// with its Report cleared and its reason in Failure. Only an item under
// the shard's current lease can charge or requeue the shard; a
// completion needs no lease (a spooled report is replayed under none).
func (c *Coordinator) classifyLocked(it *ShardResult) resultKind {
	if it.advisory() {
		return resultAdvisory
	}
	sh := &c.shards[it.Shard]
	if sh.status == shardDecided || c.finished {
		return resultLate
	}
	current := sh.status == shardLeased && it.LeaseID == sh.leaseID
	switch {
	case it.Failure != "":
	case it.Report == nil:
		it.Failure = "worker posted an empty result"
	case it.Report.Interrupted && current:
		return resultInterrupted
	case it.Report.Interrupted:
		return resultLate
	default:
		err := c.merger.Check(&search.ShardDoneRec{Shard: it.Shard, Report: it.Report})
		if err == nil {
			return resultComplete
		}
		it.Failure = "report refused: " + err.Error()
	}
	it.Report = nil
	if !current {
		return resultAdvisory
	}
	return resultFailed
}

// handleResult applies one result batch, item by item in order, under
// one lock. The completions commit first, as one group through the
// write-ahead hook (one fsync for the batch); only then does anything
// reach the merger.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := transport.ReadAll(r.Body, r.ContentLength, 64<<20)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req, err := DecodeResult(body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := r.Header.Get(transport.IdempotencyKeyHeader)
	c.mu.Lock()
	defer c.mu.Unlock()
	if key != "" {
		if data, ok := c.idem[key]; ok {
			// A retried or chaos-duplicated submission of a batch the
			// coordinator already processed: replay the original
			// acknowledgement; the merge consumed each report once.
			replayJSON(w, data)
			return
		}
	}
	for i := range req.Results {
		if it := &req.Results[i]; !it.advisory() && (it.Shard < 0 || it.Shard >= len(c.shards)) {
			http.Error(w, "unknown shard", http.StatusBadRequest)
			return
		}
	}

	// Classify, and claim the shards this batch completes (so a second
	// report for the same shard later in the batch is late).
	kinds := make([]resultKind, len(req.Results))
	var decided []search.ShardDoneRec
	for i := range req.Results {
		it := &req.Results[i]
		kinds[i] = c.classifyLocked(it)
		if kinds[i] == resultComplete {
			c.shards[it.Shard].status = shardDecided
			decided = append(decided, search.ShardDoneRec{Shard: it.Shard, Report: it.Report, Raw: it.raw})
		}
	}
	if len(decided) > 0 && c.cfg.OnShardDone != nil {
		if err := c.cfg.OnShardDone(decided); err != nil {
			// The write-ahead hook refused (ledger can't commit): nothing
			// of the batch is applied, its shards go back to pending. Not
			// cached under the idempotency key: a retried upload may land
			// after durability recovers.
			c.cfg.Logf("dist: %d shard completions from worker %s not committed: %v", len(decided), req.WorkerID, err)
			for i := range req.Results {
				if it := &req.Results[i]; kinds[i] != resultAdvisory && kinds[i] != resultLate {
					c.dropLeaseLocked(it)
					c.requeueLocked(it.Shard)
				}
			}
			http.Error(w, "shard completions not committed", http.StatusServiceUnavailable)
			return
		}
	}

	resp := ResultResponse{Accepted: make([]bool, len(req.Results))}
	for i := range req.Results {
		it := &req.Results[i]
		c.dropLeaseLocked(it)
		switch kinds[i] {
		case resultAdvisory:
			c.failures = append(c.failures, search.WorkerFailure{
				Mode:    "dist",
				Unit:    int64(it.Shard),
				Attempt: 0,
				Panic:   it.Failure,
			})
			c.cfg.Logf("dist: advisory failure from worker %s: %.160s", req.WorkerID, it.Failure)
			resp.Accepted[i] = true
		case resultFailed:
			c.cfg.Logf("dist: shard %d failed on worker %s: %.160s", it.Shard, req.WorkerID, it.Failure)
			c.failShardLocked(it.Shard, req.WorkerID, it.Failure)
			resp.Accepted[i] = true
		case resultInterrupted:
			if c.shards[it.Shard].status == shardLeased {
				c.requeueLocked(it.Shard)
			}
		case resultComplete:
			c.decideLocked(it.Shard, it.Report)
			resp.Accepted[i] = true
		}
	}
	if len(decided) > 0 {
		c.growShardsLocked()
		if m := c.cfg.Metrics; m != nil {
			m.Frontier.Set(int64(len(c.plan.Shards) - c.merger.Merged()))
		}
		c.cfg.Logf("dist: %d shards (%d..%d) completed by worker %s (%d/%d merged)",
			len(decided), decided[0].Shard, decided[len(decided)-1].Shard,
			req.WorkerID, c.merger.Merged(), len(c.plan.Shards))
		c.checkDoneLocked()
	}
	resp.Done = c.finished
	c.mergeMetricsLocked(req.Metrics)
	c.writeIdemLocked(w, key, resp)
}

// dropLeaseLocked forgets the lease a result item was posted under.
func (c *Coordinator) dropLeaseLocked(it *ShardResult) {
	if l, ok := c.leases[it.LeaseID]; ok && l.shard == it.Shard {
		delete(c.leases, it.LeaseID)
	}
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if c.cfg.EventWriter != nil && len(data) > 0 {
		c.mu.Lock()
		_, werr := c.cfg.EventWriter.Write(data)
		c.mu.Unlock()
		if werr != nil {
			http.Error(w, werr.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}
