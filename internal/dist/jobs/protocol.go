package jobs

import (
	"fairmc/internal/dist"
	"fairmc/internal/obs"
)

// Service endpoints. Job-scoped coordinator protocols are mounted
// under PathJobPrefix + "<id>" (e.g. /job/j1/v1/lease).
const (
	PathJobs      = "/v1/jobs"   // POST submit, GET list; /v1/jobs/<id>[/cancel|/report]
	PathAssign    = "/v1/assign" // GET: which job should this worker serve? (?left=<id>: it is back from that one)
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

// Assign statuses.
const (
	// AssignWork: JobID and Path are set; join the coordinator there.
	AssignWork = "work"
	// AssignWait: no running job right now; poll again.
	AssignWait = "wait"
	// AssignClosing: the service has shut down and will mount no more
	// jobs; the worker is done. What a closed Server always answers.
	AssignClosing = "closing"
)

// assignLeft is the query parameter naming the job a pool worker has
// just left, on its first assign call after the session. A job stays
// mounted until the workers its coordinator served have all said so.
const assignLeft = "left"

// AssignResponse points a pool worker at a running job's coordinator.
type AssignResponse struct {
	Status string `json:"status"`
	JobID  string `json:"jobId,omitempty"`
	// Path is the coordinator mount point relative to the service base
	// URL (e.g. "/job/j1").
	Path string `json:"path,omitempty"`
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
