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
//     appended (fsynced for commit points) BEFORE the in-memory state
//     changes, via the coordinator's OnShardDone veto hook and the
//     server's own commit helper. A crash between commit and apply is
//     repaired by replay; a crash between apply and commit cannot
//     happen.
//   - Lock order: a coordinator's internal lock may be taken before
//     the server lock (the OnShardDone hook does this), NEVER the
//     reverse — server code releases s.mu before calling into a
//     coordinator (Interrupt, Wait).
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fairmc"
	"fairmc/internal/dist"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/ledger"
	"fairmc/internal/obs"
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
	// DefaultDrainGrace is how long a finished job's coordinator
	// lingers mounted so polling workers observe completion and move
	// to their next assignment.
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
	// LeaseTTL / MaxShardAttempts / MaxInflight tune each job's
	// coordinator (see dist.CoordinatorConfig); zero values use the
	// dist defaults.
	LeaseTTL         time.Duration
	MaxShardAttempts int
	MaxInflight      int
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
	// kill -9 at exactly that point. Points are named "pre:<op>" and
	// "post:<op>" around each append.
	crashHook func(point string) bool
}

// job is the server-side state of one submission: the replayed core
// plus runtime wiring while running. State is what clients see, and
// each value promises its effect: StateQueued until the coordinator is
// mounted — including the window where the job already holds an active
// slot and runJob is planning — and StateRunning only once a pool
// worker asking /v1/assign can be pointed at it.
type job struct {
	jobState
	shards          int // planned shards, once a terminal job has dropped its Plan
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
	activeIDs   []string // mounted (running) job ids
	nextJob     int
	nonTerminal int
	rr          int // round-robin cursor for assign
	quarantined int
	badRecs     []string
	closed      bool

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
	}
	for _, q := range rec.Quarantined {
		cfg.Logf("jobs: ledger segment %s quarantined (offset %d: %s)", q.Segment, q.Offset, q.Reason)
	}
	for _, msg := range st.badRecs {
		cfg.Logf("jobs: unreadable WAL record: %s", msg)
	}
	for _, id := range st.order {
		js := st.jobs[id]
		j := &job{jobState: *js, decided: len(js.Completed)}
		if js.State != StateQueued && js.State != StateRunning {
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
		if len(j.Completed) > 0 {
			cfg.Logf("jobs: %s re-queued with %d/%d shards already committed",
				js.ID, len(j.Completed), j.shardCount())
		}
	}
	if _, err := led.Append(recServerStart, serverStartRec{Jobs: len(pend)}, true); err != nil {
		led.Close()
		return nil, fmt.Errorf("jobs: recording server start: %w", err)
	}
	s.mu.Lock()
	s.scheduleLocked()
	s.mu.Unlock()
	return s, nil
}

// commit appends one WAL record, with the crash hook around it.
func (s *Server) commit(point, typ string, v any, sync bool) error {
	if h := s.cfg.crashHook; h != nil && h("pre:"+point) {
		s.led.Freeze()
	}
	_, err := s.led.Append(typ, v, sync)
	if h := s.cfg.crashHook; h != nil && h("post:"+point) {
		s.led.Freeze()
	}
	return err
}

// scheduleLocked promotes queued jobs into the free active slots.
func (s *Server) scheduleLocked() {
	if s.closed {
		return
	}
	for len(s.activeIDs) < s.cfg.MaxActive && len(s.queue) > 0 {
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
		j.coord = nil
		j.handler = nil
	}
}

// runJob plans (first incarnation), builds the coordinator seeded
// with WAL-replayed progress, serves it until the merge completes,
// and commits the terminal record. Runs without s.mu except where
// noted.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	id := j.ID

	prog, ok := s.cfg.Lookup(j.Spec.Program)
	if !ok {
		// Admission validates programs, so this only happens when a
		// restarted service binary lost a program the WAL still names.
		s.failJob(j, fmt.Sprintf("program %q not available in this service build", j.Spec.Program))
		return
	}
	// ConfirmRuns lives outside the spec (workers never confirm); the
	// service-side coordinator runs the confirmation pass, so the
	// report matches a local run with the same -confirm.
	opts := j.Spec.Options()
	opts.ConfirmRuns = j.ConfirmRuns

	if j.Plan == nil {
		plan, err := search.PlanShards(prog, opts, j.RefParallelism)
		if err != nil {
			s.failJob(j, fmt.Sprintf("planning: %v", err))
			return
		}
		if err := s.commit("plan:"+id, recPlan, planRec{
			Job: id, OptionsHash: plan.OptionsHash, Plan: plan,
		}, true); err != nil {
			s.abortIncarnation(j, fmt.Errorf("committing plan: %w", err))
			return
		}
		s.mu.Lock()
		j.Plan = plan
		j.OptionsHash = plan.OptionsHash
		s.mu.Unlock()
	}

	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Prog:             prog,
		Program:          j.Spec.Program,
		Options:          opts,
		RefParallelism:   j.RefParallelism,
		LeaseTTL:         s.cfg.LeaseTTL,
		MaxShardAttempts: s.cfg.MaxShardAttempts,
		MaxInflight:      s.cfg.MaxInflight,
		Prior:            j.prior(),
		OnShardGrant: func(shard int, worker string) {
			// Audit trail; unsynced, loss is harmless.
			s.commit(fmt.Sprintf("grant:%s#%d", id, shard), recGrant,
				grantRec{Job: id, Shard: shard, Worker: worker}, false)
		},
		OnShardDone: func(shard int, rep *search.Report, abandoned string) error {
			// THE commit point: a shard decision reaches the merger
			// only after it is durable. An error here vetoes the
			// decision in the coordinator.
			if err := s.commit(fmt.Sprintf("shard_done:%s#%d", id, shard), recShardDone, shardDoneRec{
				Job: id, OptionsHash: j.OptionsHash, Shard: shard,
				Report: rep, Abandoned: abandoned,
			}, true); err != nil {
				return err
			}
			s.mu.Lock()
			j.decided++
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
		s.mu.Unlock()
		coord.Interrupt()
		coord.Wait()
		return
	}
	j.coord = coord
	j.handler = http.StripPrefix(PathJobPrefix+id, coord.Handler())
	j.State = StateRunning // mounted: assignable from this instant
	cancelled := j.cancelRequested
	s.mu.Unlock()
	if cancelled {
		coord.Interrupt()
	}
	s.cfg.Logf("jobs: %s running (%d shards, %d already committed)",
		id, j.shardCount(), len(j.Completed))

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
		s.mu.Lock()
		s.unmountLocked(id)
		s.mu.Unlock()
	default:
		s.finishJob(j, rep, StateDone, "")
	}
}

// finishJob commits a job's terminal record, updates memory, lingers
// for the drain grace, and frees the slot.
func (s *Server) finishJob(j *job, rep *search.Report, state, errMsg string) {
	id := j.ID
	var runReport []byte
	if state == StateDone {
		ropts := j.Spec.Options()
		ropts.ConfirmRuns = j.ConfirmRuns
		data, err := fairmc.ResultFromReport(rep).RunReport(j.Spec.Program, ropts).Encode()
		if err != nil {
			state = StateFailed
			errMsg = fmt.Sprintf("encoding run report: %v", err)
		} else {
			runReport = data
		}
	}
	if err := s.commit("done:"+id, recDone, doneRec{
		Job: id, State: state, Error: errMsg, Report: rep, RunReport: runReport,
	}, true); err != nil {
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
	coordMounted := j.coord != nil
	s.mu.Unlock()
	s.cfg.Logf("jobs: %s %s", id, state)

	if coordMounted {
		// Linger so polling workers observe Done and move on.
		select {
		case <-j.coord.Drained():
		case <-time.After(s.cfg.DrainGrace):
		}
	}
	s.mu.Lock()
	s.unmountLocked(id)
	s.scheduleLocked()
	s.mu.Unlock()
}

// release drops what only an unfinished job needs — the (grown) plan
// and every decided shard's report. A terminal job is served from its
// Report and RunReport; status keeps the counts.
func (j *job) release() {
	j.shards = j.shardCount()
	j.Plan, j.Completed, j.Abandoned = nil, nil, nil
}

// shardCount is how many shards the job's plan holds (or held).
func (j *job) shardCount() int {
	if j.Plan != nil {
		return len(j.Plan.Shards)
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

// Close interrupts running jobs (they stay resumable in the ledger)
// and closes the ledger. The crash harness skips Close — that is the
// point.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
	return s.led.Close()
}

// --- HTTP API ---

// Handler returns the service's HTTP handler: the jobs API, the
// assign endpoint, per-job coordinator mounts, and status/metrics —
// wrapped in load shedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathJobs, s.handleJobs)
	mux.HandleFunc(PathJobs+"/", s.handleJob)
	mux.HandleFunc(PathAssign, s.handleAssign)
	mux.HandleFunc(PathJobPrefix, s.handleJobProxy)
	mux.HandleFunc(PathStatus, s.handleStatus)
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	return s.shedMiddleware(mux)
}

// shedMiddleware bounds concurrently served requests, refusing the
// excess with 429 + Retry-After (the same degradation contract as the
// coordinator's).
func (s *Server) shedMiddleware(next http.Handler) http.Handler {
	max := s.cfg.MaxInflight
	if max <= 0 {
		max = dist.DefaultMaxInflight
	}
	sem := make(chan struct{}, max)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			if m := s.cfg.Metrics; m != nil {
				m.ShedRequests.Inc()
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "service overloaded", http.StatusTooManyRequests)
		}
	})
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
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Spec.Program == "" {
		http.Error(w, "spec.program is required", http.StatusBadRequest)
		return
	}
	if _, ok := s.cfg.Lookup(req.Spec.Program); !ok {
		http.Error(w, fmt.Sprintf("unknown program %q", req.Spec.Program), http.StatusBadRequest)
		return
	}
	if req.RefParallelism < 1 {
		req.RefParallelism = 1
	}

	s.mu.Lock()
	if s.nonTerminal >= s.cfg.MaxJobs {
		s.mu.Unlock()
		if m := s.cfg.Metrics; m != nil {
			m.JobsShed.Inc()
		}
		w.Header().Set("Retry-After", "5")
		http.Error(w, "job queue full", http.StatusTooManyRequests)
		return
	}
	id := fmt.Sprintf("j%d", s.nextJob)
	// The submission is acknowledged only after it is durable; the
	// ledger append happens under s.mu so replayed submission order
	// always matches s.order.
	if err := s.commit("submit:"+id, recSubmitted, submittedRec{
		Job: id, Spec: req.Spec, RefParallelism: req.RefParallelism,
		ConfirmRuns: req.ConfirmRuns,
	}, true); err != nil {
		s.mu.Unlock()
		http.Error(w, "cannot record submission: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.nextJob++
	j := &job{jobState: jobState{
		ID:             id,
		Spec:           req.Spec,
		RefParallelism: req.RefParallelism,
		ConfirmRuns:    req.ConfirmRuns,
		State:          StateQueued,
		Completed:      map[int]*search.Report{},
		Abandoned:      map[int]string{},
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
	s.cfg.Logf("jobs: %s submitted (program %s, ref -p %d)", id, req.Spec.Program, req.RefParallelism)
	writeJSON(w, SubmitResponse{JobID: id})
}

func (s *Server) statusLocked(j *job) JobStatus {
	return JobStatus{
		JobID:          j.ID,
		Program:        j.Spec.Program,
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
	case j.State == StateDone || j.State == StateFailed || j.State == StateCancelled:
		st := j.State
		s.mu.Unlock()
		writeJSON(w, CancelResponse{JobID: j.ID, State: st})
		return
	case qi >= 0: // still waiting for a slot
		if err := s.commit("done:"+j.ID, recDone, doneRec{Job: j.ID, State: StateCancelled}, true); err != nil {
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

// handleAssign round-robins pool workers over running jobs.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only jobs whose coordinator is actually mounted are assignable.
	var ready []string
	for _, id := range s.activeIDs {
		if j := s.jobs[id]; j != nil && j.handler != nil {
			ready = append(ready, id)
		}
	}
	if len(ready) == 0 {
		writeJSON(w, AssignResponse{Status: AssignWait})
		return
	}
	id := ready[s.rr%len(ready)]
	s.rr++
	writeJSON(w, AssignResponse{Status: AssignWork, JobID: id, Path: PathJobPrefix + id})
}

// handleJobProxy routes /job/<id>/... into that job's coordinator.
func (s *Server) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, PathJobPrefix)
	id, _, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	var h http.Handler
	if j := s.jobs[id]; j != nil {
		h = j.handler
	}
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "job not running here", http.StatusNotFound)
		return
	}
	h.ServeHTTP(w, r)
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

// sortIDs sorts job ids numerically (j2 before j10).
func sortIDs(ids []string) {
	sort.Slice(ids, func(a, b int) bool {
		var na, nb int
		fmt.Sscanf(ids[a], "j%d", &na)
		fmt.Sscanf(ids[b], "j%d", &nb)
		return na < nb
	})
}
