package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/dist/transport"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
)

// DefaultPoll is how often an idle pool worker asks the service for an
// assignment.
const DefaultPoll = 200 * time.Millisecond

// assignFailureBudget is how many consecutive assign failures a pool
// worker rides out (a restarting service) before giving up.
const assignFailureBudget = 100

// PoolConfig configures RunPoolWorker.
type PoolConfig struct {
	// URL is the service base URL (e.g. http://host:7171).
	URL string
	// Capacity is per-job shard concurrency (see dist.WorkerConfig).
	Capacity int
	// WorkDir holds per-JOB subdirectories of checkpoints and result
	// spools — jobs reuse shard indices, so sharing one directory
	// across jobs would collide. Empty disables both.
	WorkDir string
	// Lookup resolves program names to program bodies.
	Lookup func(name string) (func(*engine.T), bool)
	// Metrics, when set, is the worker's live registry.
	Metrics *obs.Metrics
	// Logf, when set, receives one-line operational logs.
	Logf func(format string, args ...any)
	// Stop, when closed, makes the worker finish its current leases and
	// return nil.
	Stop <-chan struct{}
	// Poll overrides DefaultPoll.
	Poll time.Duration

	// Retry / JoinTimeout / Transport / FS pass through to each job's
	// dist.RunWorker session (Transport also carries assign polls).
	Retry       transport.Policy
	JoinTimeout time.Duration
	Transport   http.RoundTripper
	FS          fsx.FS
}

// RunPoolWorker serves a jobs service: it polls /v1/assign, joins
// whichever job's coordinator the service points it at, explores until
// that job completes, and comes back for the next one. It returns nil
// when cfg.Stop closes, and an error only when the service stays
// unreachable past the failure budget or a job rejects this worker's
// build (spec mismatch).
func RunPoolWorker(cfg PoolConfig) error {
	if cfg.Lookup == nil {
		return errors.New("jobs: pool worker needs a program Lookup")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	httpc := &http.Client{Timeout: 5 * time.Second}
	if cfg.Transport != nil {
		httpc.Transport = cfg.Transport
	}

	// One worker — and so one set of engine pools — serves every job.
	var worker dist.Worker
	defer worker.Close()
	failures := 0
	for {
		select {
		case <-cfg.Stop:
			return nil
		default:
		}

		asn, err := assign(httpc, cfg.URL)
		if err != nil {
			failures++
			if failures >= assignFailureBudget {
				return fmt.Errorf("jobs: service unreachable after %d assign attempts: %w", failures, err)
			}
			if !sleepStop(cfg.Poll, cfg.Stop) {
				return nil
			}
			continue
		}
		failures = 0

		if asn.Status != AssignWork {
			if !sleepStop(cfg.Poll, cfg.Stop) {
				return nil
			}
			continue
		}

		workDir := ""
		if cfg.WorkDir != "" {
			workDir = filepath.Join(cfg.WorkDir, asn.JobID)
		}
		logf("pool: assigned to %s", asn.JobID)
		err = worker.Run(dist.WorkerConfig{
			URL:         cfg.URL + asn.Path,
			Capacity:    cfg.Capacity,
			WorkDir:     workDir,
			Lookup:      cfg.Lookup,
			Metrics:     cfg.Metrics,
			Logf:        cfg.Logf,
			Stop:        cfg.Stop,
			Retry:       cfg.Retry,
			JoinTimeout: cfg.JoinTimeout,
			Transport:   cfg.Transport,
			FS:          cfg.FS,
		})
		switch {
		case err == nil:
			// Job finished (or Stop closed); ask for the next one.
		case errors.Is(err, dist.ErrSpecMismatch):
			// Version skew is not transient; retrying other jobs from the
			// same build would just thrash.
			return err
		default:
			// A job unmounting mid-session (cancelled, or the service
			// restarted) looks like an unreachable coordinator; the
			// worker is still healthy — go get another assignment.
			logf("pool: session on %s ended: %v", asn.JobID, err)
			if !sleepStop(cfg.Poll, cfg.Stop) {
				return nil
			}
		}
	}
}

// assign asks the service which job this worker should serve.
func assign(httpc *http.Client, base string) (*AssignResponse, error) {
	resp, err := httpc.Get(base + PathAssign)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("assign: HTTP %d", resp.StatusCode)
	}
	var asn AssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&asn); err != nil {
		return nil, fmt.Errorf("assign: decoding response: %w", err)
	}
	return &asn, nil
}

// sleepStop pauses for d, cut short (returning false) by stop.
func sleepStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
