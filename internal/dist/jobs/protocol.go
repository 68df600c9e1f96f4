package jobs

import (
	"fairmc/internal/dist"
	"fairmc/internal/obs"
)

// Service endpoints, beside dist.PathLease (the one place a worker asks
// for work; a grant names the job path its results go to). Job-scoped
// coordinator protocols are mounted under PathJobPrefix + "<id>" (e.g.
// /job/j1/v1/result).
const (
	PathJobs      = "/v1/jobs" // POST submit, GET list; /v1/jobs/<id>[/cancel|/report]
	PathJobPrefix = "/job/"
	PathStatus    = "/status"
	PathMetrics   = "/metrics"
)

// SubmitRequest submits one checking job.
type SubmitRequest struct {
	// Spec is the full search configuration (the same wire form the
	// coordinator hands to workers).
	Spec dist.SearchSpec `json:"spec"`
	// RefParallelism selects which local -p N run the merged report
	// must be byte-identical to; 0 means 1.
	RefParallelism int `json:"refParallelism,omitempty"`
	// ConfirmRuns is the confirmation-replay count for findings. It is
	// not part of SearchSpec (workers never confirm; the service-side
	// coordinator does), but a job's report must still match a local
	// run with the same -confirm.
	ConfirmRuns int `json:"confirmRuns,omitempty"`
}

// SubmitResponse acknowledges a durably-recorded submission.
type SubmitResponse struct {
	JobID string `json:"jobId"`
}

// JobStatus is one job's public state.
type JobStatus struct {
	JobID          string `json:"jobId"`
	Program        string `json:"program"`
	State          string `json:"state"` // queued | running | done | failed | cancelled
	Error          string `json:"error,omitempty"`
	RefParallelism int    `json:"refParallelism"`
	// Shards/Decided describe exploration progress (0/0 until the job
	// is planned).
	Shards  int `json:"shards"`
	Decided int `json:"decided"`
	// HasReport tells clients an artifact is available at
	// /v1/jobs/<id>/report.
	HasReport bool `json:"hasReport"`
}

// ListResponse is the full job table in submission order.
type ListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// CancelResponse acknowledges a cancellation request.
type CancelResponse struct {
	JobID string `json:"jobId"`
	// State is the job's state after the request: cancelled, or the
	// terminal state it had already reached.
	State string `json:"state"`
}

// ServiceStatus is the service-level progress summary.
type ServiceStatus struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Quarantined counts ledger segments sealed aside during recovery;
	// BadRecords counts structurally invalid WAL records. Both nonzero
	// values mean the disk lied and the service kept going.
	Quarantined int `json:"quarantined,omitempty"`
	BadRecords  int `json:"badRecords,omitempty"`
}

// MetricsResponse is the service's aggregated telemetry.
type MetricsResponse struct {
	Metrics obs.Snapshot  `json:"metrics"`
	Status  ServiceStatus `json:"status"`
}
