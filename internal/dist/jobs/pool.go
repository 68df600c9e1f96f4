package jobs

import (
	"context"
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

// DefaultPoll is the fallback interval between an idle pool worker's
// assign calls. The service holds an assign call open until a job
// mounts (dist.LeaseHold), so the interval only paces calls that come
// back at once: failures, and a service that is closing.
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

// RunPoolWorker serves a jobs service: it asks /v1/assign (a call the
// service answers when it has a job), joins whichever job's coordinator
// the service points it at, explores until that job completes, and
// comes back for the next one. It returns nil
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
	// Closing Stop hangs up an assign call the service is holding open.
	ctx, cancel := transport.StopContext(cfg.Stop)
	defer cancel()

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

		asked := time.Now()
		asn, err := assign(ctx, httpc, cfg.URL)
		if err != nil {
			failures++
			if failures >= assignFailureBudget {
				return fmt.Errorf("jobs: service unreachable after %d assign attempts: %w", failures, err)
			}
		} else {
			failures = 0
		}
		if err != nil || asn.Status != AssignWork {
			if !sleepStop(cfg.Poll-time.Since(asked), cfg.Stop) {
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
func assign(ctx context.Context, httpc *http.Client, base string) (*AssignResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathAssign, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
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

// sleepStop pauses for d (not at all when d <= 0), cut short
// (returning false) by stop.
func sleepStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
