package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/dist/jobs"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
	"fairmc/progs"
)

// The service workload's shape: product defaults everywhere the CLI
// offers no flag (assign poll, drain grace), two pool workers of
// capacity 1, and two closed-loop clients that each submit their next
// job only when the previous one's artifact has been fetched and
// checked.
const (
	serviceWorkers = 2
	serviceClients = 2
	statusPoll     = 5 * time.Millisecond
	jobTimeout     = 60 * time.Second
)

// elideSync is the real filesystem with fsync turned into a no-op. The
// benchmark may write only inside its checkout, which sits on whatever
// disk the sandbox has; there a job spends half its time in fsync and
// inherits the disk's neighbours (p50 136–153 ms against 68–69 ms on
// tmpfs). The real fsync is left to the ledger probe, which reports it
// without a bound.
type elideSync struct{ fsx.FS }

// ledgerFSNote is how results describe where the service's ledger was.
const ledgerFSNote = "checkout, fsync elided"

type unsyncedFile struct{ fsx.File }

func (unsyncedFile) Sync() error { return nil }

func (e elideSync) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := e.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func lookupProgram(name string) (func(*engine.T), bool) {
	p, ok := progs.Lookup(name)
	return p.Body, ok
}

// jobRecord is one job as its client saw it; the four spans share the
// job's id.
type jobRecord struct {
	id         string
	submitMS   float64 // POST sent → acknowledged (includes the WAL commit)
	queueMS    float64 // acknowledged → first seen running
	runMS      float64 // first seen running → seen done
	artifactMS float64 // report requested → received
	latencyMS  float64 // POST sent → report received and checked
	shards     int
	decided    int
	executions int64
}

// serviceInstance is a running jobs service with its pool workers.
type serviceInstance struct {
	check    check
	expected expectation
	batch    int
	dir      string
	// Registries of a traced instance: the service's own (ledger, job
	// lifecycle) and one the pool workers share (engine, search, por,
	// transport). They are kept apart because workers also post their
	// deltas to the service, which would count that work twice.
	serverCounts, workerCounts *obs.Metrics
	server                     *jobs.Server
	http                       *httptest.Server
	client                     *http.Client
	submit                     []byte
	stop                       chan struct{}
	workers                    sync.WaitGroup
	workErr                    [serviceWorkers]error
}

func startService(c check, exp expectation, batch int, traced bool) (instance, error) {
	submit, err := json.Marshal(jobs.SubmitRequest{
		Spec:           dist.SpecFromOptions(c.program, c.opts),
		RefParallelism: 2,
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "service-")
	if err != nil {
		return nil, err
	}
	s := &serviceInstance{
		check: c, expected: exp, batch: batch, dir: dir,
		submit: submit,
		stop:   make(chan struct{}),
	}
	if traced {
		s.serverCounts, s.workerCounts = obs.NewMetrics(), obs.NewMetrics()
	}
	fsys := elideSync{fsx.OS}
	s.server, err = jobs.New(jobs.Config{
		Dir:     filepath.Join(dir, "ledger"),
		Lookup:  lookupProgram,
		FS:      fsys,
		Metrics: s.serverCounts,
	})
	if err != nil {
		return nil, err
	}
	s.http = httptest.NewServer(s.server.Handler())
	s.client = s.http.Client()
	for i := 0; i < serviceWorkers; i++ {
		s.workers.Add(1)
		go func(i int) {
			defer s.workers.Done()
			s.workErr[i] = jobs.RunPoolWorker(jobs.PoolConfig{
				URL:      s.http.URL,
				Capacity: 1,
				WorkDir:  filepath.Join(dir, fmt.Sprintf("worker%d", i)),
				Lookup:   lookupProgram,
				Metrics:  s.workerCounts,
				Stop:     s.stop,
				FS:       fsys,
			})
		}(i)
	}
	return s, nil
}

func (s *serviceInstance) counts() obs.Snapshot {
	if s.workerCounts == nil {
		return obs.Snapshot{}
	}
	c := s.workerCounts.Snapshot()
	c.LedgerAppends = s.serverCounts.Snapshot().LedgerAppends
	return c
}

// close stops the workers, the HTTP server and the service, waits for
// each, and removes the ledger.
func (s *serviceInstance) close() error {
	close(s.stop)
	s.workers.Wait()
	s.http.Close()
	return errors.Join(append(s.workErr[:], s.server.Close(), os.RemoveAll(s.dir))...)
}

// repeat runs one batch: the clients share a counter and each takes
// the next job when its previous one is finished.
func (s *serviceInstance) repeat(tr *tracer, parent int) repetition {
	var (
		mu   sync.Mutex
		next int
		r    repetition
		wg   sync.WaitGroup
	)
	ledgerDir := filepath.Join(s.dir, "ledger")
	before := dirBytes(ledgerDir)
	start := now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				mine := next < s.batch
				next++
				mu.Unlock()
				if !mine {
					return
				}
				job, err := s.runJob(tr, parent)
				mu.Lock()
				r.latenciesMS = append(r.latenciesMS, job.latencyMS)
				if err != nil {
					r.failures = append(r.failures, fmt.Sprintf("job %s: %v", job.id, err))
				} else {
					r.jobs = append(r.jobs, job)
					r.executions += job.executions
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wallS = (now() - start) / 1000
	r.ledgerBytes = dirBytes(ledgerDir) - before
	return r
}

// runJob takes one job from submit to a checked artifact.
func (s *serviceInstance) runJob(tr *tracer, parent int) (job jobRecord, err error) {
	base := s.http.URL + jobs.PathJobs
	sent := now()
	defer func() { job.latencyMS = now() - sent }()

	var ack jobs.SubmitResponse
	if err := s.call(http.MethodPost, base, s.submit, &ack); err != nil {
		return job, fmt.Errorf("submit refused: %w", err)
	}
	job.id = ack.JobID
	acked := now()
	job.submitMS = acked - sent

	var st jobs.JobStatus
	running := 0.0
	for deadline := time.Now().Add(jobTimeout); ; time.Sleep(statusPoll) {
		if err := s.call(http.MethodGet, base+"/"+job.id, nil, &st); err != nil {
			return job, fmt.Errorf("status: %w", err)
		}
		if running == 0 && st.State != jobs.StateQueued {
			running = now()
		}
		if st.State == jobs.StateDone {
			break
		}
		if st.State != jobs.StateQueued && st.State != jobs.StateRunning {
			return job, fmt.Errorf("state %q (%s), want done", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return job, fmt.Errorf("still %q after %s", st.State, jobTimeout)
		}
	}
	done := now()
	job.queueMS, job.runMS = running-acked, done-running
	job.shards, job.decided = st.Shards, st.Decided

	var rr obs.RunReport
	if err := s.call(http.MethodGet, base+"/"+job.id+"/report", nil, &rr); err != nil {
		return job, fmt.Errorf("artifact: %w", err)
	}
	fetched := now()
	job.artifactMS = fetched - done
	job.executions = rr.Counters.Executions

	tr.add(parent, "jobs.submit", job.id, sent, acked)
	tr.add(parent, "jobs.queue", job.id, acked, running)
	tr.add(parent, "jobs.run", job.id, running, done)
	tr.add(parent, "jobs.artifact", job.id, done, fetched)
	if msg := s.check.wrong(s.expected, verdictOfRunReport(&rr)); msg != "" {
		return job, errors.New(msg)
	}
	return job, nil
}

// call makes one request and decodes the JSON reply into out.
func (s *serviceInstance) call(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file removed mid-walk is not this walk's concern
	})
	return n
}
