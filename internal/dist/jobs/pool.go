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

	// Retry / JoinTimeout / Transport / FS pass through to each job's
	// dist.RunWorker session. The assign calls use them too: Transport
	// carries them, Retry paces the ones that fail (and the way back from
	// a failed session), and JoinTimeout (0: dist.DefaultJoinTimeout) is
	// how long the service may stay unreachable — not started yet, or
	// restarting — before the worker gives up.
	Retry       transport.Policy
	JoinTimeout time.Duration
	Transport   http.RoundTripper
	FS          fsx.FS
}

// RunPoolWorker serves a jobs service: it asks /v1/assign (a call the
// service answers when it has a job), joins whichever job's coordinator
// the service points it at, explores until that job completes, and
// comes back for the next one. It returns nil when cfg.Stop closes or
// the service says it is closing, and an error only when the service
// stays unreachable for cfg.JoinTimeout — what a worker started before
// its service rides out — or a job rejects this worker's build (spec
// mismatch).
func RunPoolWorker(cfg PoolConfig) error {
	if cfg.Lookup == nil {
		return errors.New("jobs: pool worker needs a program Lookup")
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = dist.DefaultJoinTimeout
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
	failures, down := 0, time.Time{} // the current run of failed assign calls, and when it began
	left := ""                       // the job this worker is back from and has yet to tell the service so
	for {
		select {
		case <-cfg.Stop:
			return nil
		default:
		}

		asked := time.Now()
		url := cfg.URL + PathAssign
		if left != "" {
			url += "?" + assignLeft + "=" + left
		}
		asn, err := assign(ctx, httpc, url)
		if err != nil {
			if failures++; failures == 1 {
				down = asked
			}
			if time.Since(down) >= cfg.JoinTimeout {
				return fmt.Errorf("jobs: service unreachable for %s (%d assign attempts): %w", cfg.JoinTimeout, failures, err)
			}
			if !dist.SleepStop(cfg.Retry.Backoff(PathAssign, failures), cfg.Stop) {
				return nil
			}
			continue
		}
		failures, left = 0, ""
		if asn.Status == AssignClosing {
			logf("pool: service is closing")
			return nil
		}
		if asn.Status != AssignWork {
			if !dist.SleepStop(cfg.Retry.Backoff(PathAssign, 1)-time.Since(asked), cfg.Stop) {
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
		left = asn.JobID
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
			if !dist.SleepStop(cfg.Retry.Backoff(PathAssign, 1), cfg.Stop) {
				return nil
			}
		}
	}
}

// assign asks the service which job this worker should serve.
func assign(ctx context.Context, httpc *http.Client, url string) (*AssignResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
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
