// Package jobs is the durable checking service: a multi-job layer
// above the dist coordinator with a submit/status/cancel/artifacts
// HTTP API, backed by the internal/ledger write-ahead log so a
// kill -9'd service restarts, replays the WAL, re-queues unfinished
// jobs, re-leases only shards without a committed completion, and
// still produces merged reports byte-identical to an uninterrupted
// local -p N run. Completed jobs are served from the ledger without
// re-exploration.
//
// Concurrency and commit discipline:
//
//   - Every state transition is WAL-first: the ledger record is
//     appended and fsynced BEFORE the in-memory state changes, via the
//     coordinator's OnShardDone veto hook and the server's own commit
//     helper. The shard decisions of one result batch commit as one
//     group under one fsync, and reach the merger only after it. A
//     crash between commit and apply is repaired by replay; a crash
//     between apply and commit cannot happen.
//   - Lock order: a coordinator's internal lock may be taken before
//     the server lock (the OnShardDone hook does this), NEVER the
//     reverse — server code releases s.mu before calling into a
//     coordinator (Interrupt, Wait).
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/engine"
	"fairmc/internal/faultinject"
	"fairmc/internal/fsx"
	"fairmc/internal/ledger"
	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/search"
)

// Service defaults.
const (
	// DefaultMaxActive is how many jobs explore concurrently; queued
	// jobs beyond it wait (workers are shared, so more active jobs
	// means slower jobs, not more throughput).
	DefaultMaxActive = 2
	// DefaultMaxJobs bounds admission: queued+running jobs beyond it
	// are refused with 429 + Retry-After.
	DefaultMaxJobs = 64
	// DefaultDrainGrace bounds how long Close waits for the workers
	// still out on a lease to come back and be told the service is
	// done. A live worker is back within a wave (or a heartbeat: its
	// job's path answers 404 once the job is unmounted), so this is a
	// crash-only timeout: it runs out only for a worker that was granted
	// work and died.
	DefaultDrainGrace = 2 * time.Second
)

// Config configures New.
type Config struct {
	// Dir is the ledger directory (created if missing).
	Dir string
	// Lookup resolves program names to program bodies; submissions
	// naming unknown programs are rejected at admission.
	Lookup func(name string) (func(*engine.T), bool)
	// MaxActive bounds concurrently exploring jobs; 0 means
	// DefaultMaxActive.
	MaxActive int
	// MaxJobs bounds queued+running jobs; 0 means DefaultMaxJobs.
	MaxJobs int
	// LeaseTTL and MaxShardAttempts are every job's coordinator's
	// (dist.CoordinatorConfig); zero values use the dist defaults.
	LeaseTTL         time.Duration
	MaxShardAttempts int
	// Chaos, when set, injects server-side faults (delays, drops) into
	// every lease call and every request a mounted job serves, before any
	// coordinator logic sees it — the deterministic chaos harness's
	// server half.
	Chaos *faultinject.Injector
	// EventWriter, when set, receives the JSONL trace-event streams
	// workers forward, every job's.
	EventWriter io.Writer
	// SegmentBytes overrides the ledger segment rotation threshold
	// (tests use small values to exercise rotation).
	SegmentBytes int64
	// DrainGrace overrides DefaultDrainGrace.
	DrainGrace time.Duration
	// FS substitutes the filesystem (fault injection); nil = real.
	FS fsx.FS
	// Metrics, when set, receives service and ledger counters and each
	// job's aggregated worker telemetry.
	Metrics *obs.Metrics
	// Logf, when set, receives one-line operational logs.
	Logf func(format string, args ...any)

	// crashHook, when set (tests only), observes every WAL commit
	// point; returning true freezes the ledger — the disk's view of
	// kill -9 at exactly that point. Points are named "pre:<op>" before
	// each frame of a commit group is written (for the second frame on,
	// that is between two frames of the group), "sync:<op>" between the
	// group's last frame and its fsync, and "post:<op>" after it.
	crashHook func(point string) bool
	// maxInflight, when set (tests only), replaces defaultMaxInflight.
	maxInflight int
}

// job is the server-side state of one submission: the replayed core
// plus runtime wiring while running. State is what clients see, and
// each value promises its effect: StateQueued until the coordinator is
// mounted — including the window where the job already holds an active
// slot and runJob is planning — and StateRunning only once a worker
// asking /v1/lease can be granted its shards.
type job struct {
	jobState
	shards          int // planned shards while no coordinator is mounted to ask
	decided         int // shards decided this incarnation + replayed
	cancelRequested bool
	coord           *dist.Coordinator
	handler         http.Handler
}

// Server is the durable checking service. Create with New, mount
// Handler, Close when done.
type Server struct {
	cfg Config
	led *ledger.Ledger

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string // submission order
	queue       []string // queued job ids, FIFO
	activeIDs   []string // jobs holding a coordinator or about to: running, mounting
	nextJob     int
	nonTerminal int
	rr          int // round-robin cursor for lease
	quarantined int
	badRecs     []string
	closed      bool
	// out is the workers granted work that have not asked for more
	// since: the ones Close waits for.
	out map[string]struct{}
	// wake is closed (and replaced) whenever a parked lease call, a Wait
	// or Close should look again: a job mounted, ended or left the
	// active set, a mounted coordinator has something new to lease
	// (CoordinatorConfig.OnWake), or the server is closing.
	wake chan struct{}
	// parked counts the lease calls held open right now (hold).
	parked atomic.Int64

	wg sync.WaitGroup
}

// New opens (or recovers) the service ledger in cfg.Dir, replays it,
// re-queues unfinished jobs, and returns a serving-ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Lookup == nil {
		return nil, errors.New("jobs: Config.Lookup is required")
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = DefaultDrainGrace
	}
	if cfg.maxInflight <= 0 {
		cfg.maxInflight = defaultMaxInflight
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	led, rec, err := ledger.Open(cfg.Dir, ledger.Options{
		FS:           cfg.FS,
		SegmentBytes: cfg.SegmentBytes,
		Metrics:      cfg.Metrics,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: opening ledger: %w", err)
	}
	st := rebuild(rec.Records)
	s := &Server{
		cfg:         cfg,
		led:         led,
		jobs:        map[string]*job{},
		nextJob:     st.maxJob + 1,
		quarantined: len(rec.Quarantined),
		badRecs:     st.badRecs,
		out:         map[string]struct{}{},
		wake:        make(chan struct{}),
	}
	for _, q := range rec.Quarantined {
		cfg.Logf("jobs: ledger segment %s quarantined (offset %d: %s)", q.Segment, q.Offset, q.Reason)
	}
	for _, msg := range st.badRecs {
		cfg.Logf("jobs: unreadable WAL record: %s", msg)
	}
	for _, id := range st.order {
		js := st.jobs[id]
		j := &job{jobState: *js, decided: len(js.Done)}
		if js.Plan != nil {
			j.shards = len(js.Plan.Shards)
		}
		if j.terminal() {
			j.release()
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	pend := st.pending()
	for _, js := range pend {
		j := s.jobs[js.ID]
		j.State = StateQueued
		s.queue = append(s.queue, js.ID)
		s.nonTerminal++
		if len(j.Done) > 0 {
			cfg.Logf("jobs: %s re-queued with %d/%d shards already committed",
				js.ID, len(j.Done), j.shardCount())
		}
	}
	if err := led.AppendAll(ledger.Entry{Type: recServerStart, Data: jsonOf(serverStartRec{Jobs: len(pend)})}); err != nil {
		led.Close()
		return nil, fmt.Errorf("jobs: recording server start: %w", err)
	}
	s.mu.Lock()
	s.scheduleLocked()
	s.mu.Unlock()
	return s, nil
}

// commit appends WAL records as one group — every frame, then a single
// fsync — with the crash hook around and inside it. points names the
// entries' commit points, one each; only the hook reads them.
func (s *Server) commit(points []string, entries ...ledger.Entry) error {
	h := s.cfg.crashHook
	if h == nil {
		return s.led.AppendAll(entries...)
	}
	// cut is how many frames of the group reach the log before the kill;
	// -1: all of them, and the fsync too.
	cut, last := -1, points[len(points)-1]
	for i, p := range points {
		if h("pre:" + p) {
			cut = i
			break
		}
	}
	if cut < 0 && h("sync:"+last) {
		cut = len(entries)
	}
	if cut >= 0 {
		s.led.FreezeAfter(cut)
	}
	err := s.led.AppendAll(entries...)
	if h("post:" + last) {
		s.led.Freeze()
	}
	return err
}

// audit appends an audit-trail record: unsynced (it rides along with
// the next fsync) and its loss is harmless.
func (s *Server) audit(point, typ string, data []byte) {
	if h := s.cfg.crashHook; h != nil && h("pre:"+point) {
		s.led.Freeze()
	}
	s.led.Append(typ, data, false) // an unrecorded grant changes nothing
	if h := s.cfg.crashHook; h != nil && h("post:"+point) {
		s.led.Freeze()
	}
}

// wakeLocked makes every parked lease call (and Wait, and Close) look
// again.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// wakeAll is wakeLocked for a caller not holding s.mu: a mounted
// coordinator, under its own lock, which orders before the server's.
func (s *Server) wakeAll() {
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
}

// commit1 is commit for a group of one.
func (s *Server) commit1(point, typ string, data []byte) error {
	return s.commit([]string{point}, ledger.Entry{Type: typ, Data: data})
}

// jsonOf is the JSON of one of the service's own records.
func jsonOf(v any) []byte {
	data, _ := json.Marshal(v) // plain data: cannot fail
	return data
}

// scheduleLocked promotes queued jobs into the free active slots.
func (s *Server) scheduleLocked() {
	if s.closed {
		return
	}
	for free := s.cfg.MaxActive - len(s.activeIDs); free > 0 && len(s.queue) > 0; {
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		if j == nil || j.State != StateQueued {
			continue
		}
		// Reserve the slot before the goroutine mounts, so the loop
		// cannot over-promote. The job stays StateQueued until runJob
		// has mounted its coordinator.
		s.activeIDs = append(s.activeIDs, id)
		free--
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// unmountLocked removes a job from the active set.
func (s *Server) unmountLocked(id string) {
	for i, a := range s.activeIDs {
		if a == id {
			s.activeIDs = append(s.activeIDs[:i], s.activeIDs[i+1:]...)
			break
		}
	}
	if j := s.jobs[id]; j != nil {
		if j.coord != nil {
			j.shards = j.coord.Planned()
		}
		j.coord = nil
		j.handler = nil
	}
	s.wakeLocked()
}

// runJob plans (first incarnation), builds the coordinator seeded
// with WAL-replayed progress, serves it until the merge completes,
// and commits the terminal record. Runs without s.mu except where
// noted.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	id := j.ID

	if j.Unreadable != "" {
		s.failJob(j, j.Unreadable)
		return
	}
	prog, ok := s.cfg.Lookup(j.Spec.ProgramName)
	if !ok {
		// Admission validates programs, so this only happens when a
		// restarted service binary lost a program the WAL still names.
		s.failJob(j, fmt.Sprintf("program %q not available in this service build", j.Spec.ProgramName))
		return
	}
	if j.Plan != nil {
		// A plan recorded by a build that hashes these options otherwise
		// would be granted to workers that all refuse it.
		if h := search.OptionsHash(&j.Spec); j.Plan.OptionsHash != h {
			s.failJob(j, fmt.Sprintf("the recorded plan's options hash %#x is not this build's %#x for the job's options (ledger written by another version)",
				j.Plan.OptionsHash, h))
			return
		}
	} else {
		plan, err := search.PlanShards(prog, j.Spec, j.RefParallelism)
		if err != nil {
			s.failJob(j, fmt.Sprintf("planning: %v", err))
			return
		}
		data, err := (&search.PlanRec{Job: id, OptionsHash: plan.OptionsHash, Plan: plan}).Encode(nil)
		if err == nil {
			err = s.commit1("plan:"+id, search.RecPlan, data)
		}
		if err != nil {
			s.abortIncarnation(j, fmt.Errorf("committing plan: %w", err))
			return
		}
		s.mu.Lock()
		j.Plan = plan
		j.OptionsHash = plan.OptionsHash
		j.shards = len(plan.Shards)
		s.mu.Unlock()
	}

	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Prog:             prog,
		Options:          j.Spec,
		RefParallelism:   j.RefParallelism,
		LeaseTTL:         s.cfg.LeaseTTL,
		MaxShardAttempts: s.cfg.MaxShardAttempts,
		EventWriter:      s.cfg.EventWriter,
		Prior:            j.prior(),
		OnShardGrant: func(shards []int, worker string) {
			s.audit(fmt.Sprintf("grant:%s#%d", id, shards[0]), recGrant,
				jsonOf(grantRec{Job: id, Shards: shards, Worker: worker}))
		},
		OnWake: s.wakeAll,
		OnShardDone: func(decided []search.ShardDoneRec) error {
			// THE commit point: shard decisions reach the merger only
			// after they are durable — every shard_done frame of the
			// batch, then one fsync. An error here vetoes them all in
			// the coordinator. A posted report goes into its record as
			// the bytes it arrived as, and the batch's records into one
			// buffer.
			var points []string
			entries := make([]ledger.Entry, len(decided))
			size := 0
			for i := range decided {
				size += 64 + len(id) + len(decided[i].Raw)
			}
			buf := make([]byte, 0, size)
			for i := range decided {
				d := &decided[i]
				d.Job, d.OptionsHash = id, j.OptionsHash
				start := len(buf)
				var err error
				if buf, err = d.Encode(buf); err != nil {
					return err
				}
				if s.cfg.crashHook != nil {
					points = append(points, fmt.Sprintf("shard_done:%s#%d", id, d.Shard))
				}
				entries[i] = ledger.Entry{Type: search.RecShardDone, Data: buf[start:]}
			}
			if err := s.commit(points, entries...); err != nil {
				return err
			}
			s.mu.Lock()
			j.decided += len(decided)
			s.mu.Unlock()
			return nil
		},
		Metrics: s.cfg.Metrics,
		Logf: func(format string, args ...any) {
			s.cfg.Logf("%s: "+format, append([]any{id}, args...)...)
		},
	})
	if err != nil {
		s.failJob(j, fmt.Sprintf("building coordinator: %v", err))
		return
	}

	s.mu.Lock()
	if s.closed {
		s.unmountLocked(id)
		s.mu.Unlock()
		coord.Interrupt()
		coord.Wait()
		return
	}
	j.coord = coord
	j.handler = s.chaos(http.StripPrefix(PathJobPrefix+id, coord.Handler()))
	j.State = StateRunning // mounted: leasable from this instant
	s.wakeLocked()
	cancelled := j.cancelRequested
	shards := j.shardCount()
	s.mu.Unlock()
	if cancelled {
		coord.Interrupt()
	}
	s.cfg.Logf("jobs: %s running (%d shards, %d already committed)",
		id, shards, len(j.Done))

	rep := coord.Wait()

	s.mu.Lock()
	wasCancelled := j.cancelRequested
	closed := s.closed
	s.mu.Unlock()

	switch {
	case wasCancelled:
		s.finishJob(j, rep, StateCancelled, "")
	case rep.Interrupted || closed:
		// Service shutdown, not job completion: leave the job's WAL
		// state as-is; the next incarnation re-queues and resumes it.
		// Wait hands this incarnation's interrupted merge to its caller.
		s.mu.Lock()
		j.Report = rep
		s.unmountLocked(id)
		s.mu.Unlock()
	default:
		s.finishJob(j, rep, StateDone, "")
	}
}

// finishJob commits a job's terminal record, updates memory and
// unmounts the coordinator — which frees the job's slot for the next
// queued one. A worker still out on a lease of the job finds its path
// gone (404) and drops the work.
func (s *Server) finishJob(j *job, rep *search.Report, state, errMsg string) {
	id := j.ID
	var runReport []byte
	if state == StateDone {
		data, err := fairmc.ResultFromReport(rep).RunReport(j.Spec.ProgramName, j.Spec).Encode()
		if err != nil {
			state = StateFailed
			errMsg = fmt.Sprintf("encoding run report: %v", err)
		} else {
			runReport = data
		}
	}
	if err := s.commit1("done:"+id, recDone, jsonOf(doneRec{
		Job: id, State: state, Error: errMsg, Report: rep, RunReport: runReport,
	})); err != nil {
		s.abortIncarnation(j, fmt.Errorf("committing terminal state: %w", err))
		return
	}
	s.mu.Lock()
	j.State = state
	j.Error = errMsg
	j.Report = rep
	j.RunReport = runReport
	j.release()
	s.nonTerminal--
	if m := s.cfg.Metrics; m != nil {
		switch state {
		case StateCancelled:
			m.JobsCancelled.Inc()
		default:
			m.JobsDone.Inc()
		}
	}
	s.unmountLocked(id)
	s.scheduleLocked()
	s.mu.Unlock()
	s.cfg.Logf("jobs: %s %s", id, state)
}

// release drops what only an unfinished job needs — the (grown) plan
// and every decided shard's report. A terminal job is served from its
// Report and RunReport; status keeps the counts.
func (j *job) release() {
	j.Plan, j.Done = nil, nil
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCancelled
}

// shardCount is how many shards the job's plan holds (or held). The
// plan itself belongs to the mounted coordinator, whose merger grows it
// under the coordinator's lock; the server only ever asks for the
// published count.
func (j *job) shardCount() int {
	if j.coord != nil {
		return j.coord.Planned()
	}
	return j.shards
}

// failJob records an infrastructure failure (unknown program, planning
// error) as the job's terminal state.
func (s *Server) failJob(j *job, reason string) {
	s.cfg.Logf("jobs: %s failed: %s", j.ID, reason)
	s.finishJob(j, nil, StateFailed, reason)
}

// abortIncarnation handles a WAL that can no longer commit (disk gone,
// or the crash harness froze it): the job stays non-terminal in the
// ledger, so a restarted service resumes it; this incarnation just
// unmounts it.
func (s *Server) abortIncarnation(j *job, err error) {
	s.cfg.Logf("jobs: %s: ledger cannot commit, leaving job for restart: %v", j.ID, err)
	s.mu.Lock()
	s.unmountLocked(j.ID)
	s.mu.Unlock()
}

// Close interrupts running jobs (they stay resumable in the ledger) and
// unmounts them, waits — at most DrainGrace — until no lease is
// outstanding: every worker that was granted work has come back to
// /v1/lease, which from now on answers "done"; then it closes the
// ledger. The crash harness skips Close — that is the point.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.wakeLocked()
	var coords []*dist.Coordinator
	for _, id := range s.activeIDs {
		if j := s.jobs[id]; j != nil && j.coord != nil {
			coords = append(coords, j.coord)
		}
	}
	s.mu.Unlock()
	for _, c := range coords {
		c.Interrupt()
	}
	s.wg.Wait()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	for expired := false; !expired; {
		s.mu.Lock()
		wake, out := s.wake, len(s.out)
		s.mu.Unlock()
		if out == 0 {
			break
		}
		select {
		case <-wake:
		case <-grace.C:
			expired = true
		}
	}
	return s.led.Close()
}

// Wait blocks until the job is terminal or this incarnation is done
// with it (the server closed, or its ledger can no longer commit), and
// returns its status and report: the merged report of a finished or
// cancelled job, the interrupted merge of one the server closed under,
// nil for a job that failed or never ran.
func (s *Server) Wait(id string) (JobStatus, *search.Report) {
	for {
		s.mu.Lock()
		j := s.jobs[id]
		if j == nil {
			s.mu.Unlock()
			return JobStatus{}, nil
		}
		waiting := slices.Contains(s.activeIDs, id) || (!s.closed && slices.Contains(s.queue, id))
		if j.terminal() || !waiting {
			st, rep := s.statusLocked(j), j.Report
			s.mu.Unlock()
			return st, rep
		}
		wake := s.wake
		s.mu.Unlock()
		<-wake
	}
}

// Submission returns the request job id was admitted with.
func (s *Server) Submission(id string) (SubmitRequest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return SubmitRequest{}, false
	}
	return SubmitRequest{Spec: j.Spec, RefParallelism: j.RefParallelism}, true
}

// --- HTTP API ---

// Handler returns the service's HTTP handler: the jobs API, the lease
// endpoint, per-job coordinator mounts, and status/metrics — wrapped in
// load shedding. Server-side chaos, when configured, covers the lease
// endpoint and every request a mounted job serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathJobs, s.handleJobs)
	mux.HandleFunc(PathJobs+"/", s.handleJob)
	mux.Handle(dist.PathLease, s.chaos(http.HandlerFunc(s.handleLease)))
	mux.HandleFunc(PathJobPrefix, s.handleJobProxy)
	mux.HandleFunc(PathStatus, s.handleStatus)
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	return shed(s.cfg.maxInflight, s.cfg.Metrics, mux)
}

// chaos wraps h in the server-side fault injector, when there is one.
func (s *Server) chaos(h http.Handler) http.Handler {
	if s.cfg.Chaos == nil {
		return h
	}
	return s.cfg.Chaos.Middleware(h)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleJobs serves POST /v1/jobs (submit) and GET /v1/jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.mu.Lock()
		resp := ListResponse{Jobs: make([]JobStatus, 0, len(s.order))}
		for _, id := range s.order {
			resp.Jobs = append(resp.Jobs, s.statusLocked(s.jobs[id]))
		}
		s.mu.Unlock()
		writeJSON(w, resp)
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	id, code, err := s.submit(req)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "5")
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, SubmitResponse{JobID: id})
}

// Submit admits one job, as POST /v1/jobs does, and returns its id once
// the submission is durable.
func (s *Server) Submit(req SubmitRequest) (string, error) {
	id, _, err := s.submit(req)
	return id, err
}

// submit is Submit with the HTTP status a refusal maps to.
func (s *Server) submit(req SubmitRequest) (id string, code int, err error) {
	if req.Spec.ProgramName == "" {
		return "", http.StatusBadRequest, errors.New("spec.program is required")
	}
	if _, ok := s.cfg.Lookup(req.Spec.ProgramName); !ok {
		return "", http.StatusBadRequest, fmt.Errorf("unknown program %q", req.Spec.ProgramName)
	}
	req.Spec = req.Spec.Spec()
	if req.RefParallelism < 1 {
		req.RefParallelism = 1
	}

	s.mu.Lock()
	if s.nonTerminal >= s.cfg.MaxJobs {
		s.mu.Unlock()
		if m := s.cfg.Metrics; m != nil {
			m.JobsShed.Inc()
		}
		return "", http.StatusTooManyRequests, errors.New("job queue full")
	}
	id = fmt.Sprintf("j%d", s.nextJob)
	// The submission is acknowledged only after it is durable; the
	// ledger append happens under s.mu so replayed submission order
	// always matches s.order.
	if err := s.commit1("submit:"+id, recSubmitted, jsonOf(submittedRec{
		Job: id, Spec: req.Spec, RefParallelism: req.RefParallelism,
	})); err != nil {
		s.mu.Unlock()
		return "", http.StatusServiceUnavailable, fmt.Errorf("cannot record submission: %w", err)
	}
	s.nextJob++
	j := &job{jobState: jobState{
		ID:             id,
		Spec:           req.Spec,
		RefParallelism: req.RefParallelism,
		State:          StateQueued,
	}}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.nonTerminal++
	if m := s.cfg.Metrics; m != nil {
		m.JobsSubmitted.Inc()
	}
	s.scheduleLocked()
	s.mu.Unlock()
	s.cfg.Logf("jobs: %s submitted (program %s, ref -p %d)", id, req.Spec.ProgramName, req.RefParallelism)
	return id, http.StatusOK, nil
}

func (s *Server) statusLocked(j *job) JobStatus {
	return JobStatus{
		JobID:          j.ID,
		Program:        j.Spec.ProgramName,
		State:          j.State,
		Error:          j.Error,
		RefParallelism: j.RefParallelism,
		Shards:         j.shardCount(),
		Decided:        j.decided,
		HasReport:      len(j.RunReport) > 0,
	}
}

// handleJob serves /v1/jobs/<id>, /v1/jobs/<id>/cancel, and
// /v1/jobs/<id>/report.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, PathJobs+"/")
	id, action, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	switch action {
	case "":
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		s.mu.Lock()
		st := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, st)
	case "cancel":
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.handleCancel(w, j)
	case "report":
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		s.mu.Lock()
		report := j.RunReport
		state := j.State
		s.mu.Unlock()
		if len(report) == 0 {
			http.Error(w, fmt.Sprintf("job %s has no report (state %s)", id, state), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(report)
	default:
		http.Error(w, "unknown action", http.StatusNotFound)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	qi := slices.Index(s.queue, j.ID)
	switch {
	case j.terminal():
		st := j.State
		s.mu.Unlock()
		writeJSON(w, CancelResponse{JobID: j.ID, State: st})
		return
	case qi >= 0: // still waiting for a slot
		if err := s.commit1("done:"+j.ID, recDone, jsonOf(doneRec{Job: j.ID, State: StateCancelled})); err != nil {
			s.mu.Unlock()
			http.Error(w, "cannot record cancellation: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		j.State = StateCancelled
		j.release()
		s.nonTerminal--
		s.queue = slices.Delete(s.queue, qi, qi+1)
		if m := s.cfg.Metrics; m != nil {
			m.JobsCancelled.Inc()
		}
		s.wakeLocked()
		s.mu.Unlock()
		s.cfg.Logf("jobs: %s cancelled while queued", j.ID)
		writeJSON(w, CancelResponse{JobID: j.ID, State: StateCancelled})
		return
	default: // running, or promoted and mounting: runJob sees the request
		j.cancelRequested = true
		coord := j.coord
		s.mu.Unlock()
		if coord != nil {
			// Outside s.mu: coordinator locks come first (see package
			// comment).
			coord.Interrupt()
		}
		s.cfg.Logf("jobs: %s cancellation requested", j.ID)
		writeJSON(w, CancelResponse{JobID: j.ID, State: StateCancelled})
		return
	}
}

// handleLease is the one way a worker gets work. Round-robin over the
// mounted jobs it asks each coordinator for a lease and answers with
// the first wave any of them grants: the grant is made in the call that
// found the work, and names the job path its heartbeats and results go
// to. With nothing to grant it parks the call (outside the
// load-shedding bound) until a job mounts or a mounted coordinator has
// something new, for at most dist.LeaseHold. A closed server answers
// "done", always and at once.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req dist.LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Codec != por.CodecVersion {
		// Another build's worker: it could decode no grant of this one.
		http.Error(w, fmt.Sprintf("the worker speaks codec version %d, this service %d (another build)",
			req.Codec, por.CodecVersion), http.StatusBadRequest)
		return
	}
	type mount struct {
		id    string
		coord *dist.Coordinator
	}
	var mounted []mount
	held := hold{parked: &s.parked}
	defer held.stop()
	for {
		s.mu.Lock()
		if _, was := s.out[req.WorkerID]; was {
			delete(s.out, req.WorkerID) // back from its last grant
			if s.closed {
				s.wakeLocked()
			}
		}
		// Read before any coordinator is asked, so a wake in between is
		// not missed.
		wake, closed := s.wake, s.closed
		mounted = mounted[:0]
		for i := range s.activeIDs {
			if j := s.jobs[s.activeIDs[(s.rr+i)%len(s.activeIDs)]]; j.coord != nil {
				mounted = append(mounted, mount{j.ID, j.coord})
			}
		}
		s.rr++
		s.mu.Unlock()
		if closed {
			writeLease(w, dist.LeaseDone)
			return
		}
		for _, m := range mounted {
			// Outside s.mu: a coordinator's lock orders before the server's.
			data, status := m.coord.Lease(req.WorkerID, m.id, PathJobPrefix+m.id)
			if status != dist.LeaseWork {
				continue
			}
			s.mu.Lock()
			s.out[req.WorkerID] = struct{}{}
			s.mu.Unlock()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.Write(data)
			return
		}
		if !held.wait(r, wake) {
			writeLease(w, dist.LeaseWait)
			return
		}
	}
}

// writeLease answers a lease call that grants nothing with status.
func writeLease(w http.ResponseWriter, status string) {
	data, _ := (&dist.LeaseResponse{Status: status}).Encode(nil) // no shard: cannot fail
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleJobProxy routes /job/<id>/... into that job's coordinator. A
// job that is not mounted is gone as far as a worker is concerned (404:
// it drops what it holds of the job) — except one this incarnation has
// yet to mount again after a restart (503: the worker's results are
// retried, or spooled, not dropped).
func (s *Server) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, PathJobPrefix)
	id, _, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	var h http.Handler
	j := s.jobs[id]
	if j != nil {
		h = j.handler
	}
	pending := j != nil && j.State == StateQueued && !s.closed
	s.mu.Unlock()
	switch {
	case h != nil:
		h.ServeHTTP(w, r)
	case pending:
		http.Error(w, "job not mounted yet", http.StatusServiceUnavailable)
	default:
		http.Error(w, "job not running here", http.StatusNotFound)
	}
}

func (s *Server) serviceStatusLocked() ServiceStatus {
	st := ServiceStatus{Quarantined: s.quarantined, BadRecords: len(s.badRecs)}
	for _, j := range s.jobs {
		switch j.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.serviceStatusLocked()
	s.mu.Unlock()
	writeJSON(w, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if s.cfg.Metrics != nil {
		snap = s.cfg.Metrics.Snapshot()
	}
	s.mu.Lock()
	st := s.serviceStatusLocked()
	s.mu.Unlock()
	writeJSON(w, MetricsResponse{Metrics: snap, Status: st})
}

// JobIDs returns every known job id in submission order (tests and
// status tooling).
func (s *Server) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}
