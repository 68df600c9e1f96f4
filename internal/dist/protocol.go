// Package dist distributes a search across processes and machines: a
// coordinator owns one search's shard plan (search.PlanShards) and
// grants lease-based work items of it; the jobs service
// (internal/dist/jobs) mounts one per running job and serves the worker
// protocol, plain HTTP with JSON envelopes (a DPOR unit and a unit
// report's payload travel inside them in por's binary codec, as one
// base64 string each). Workers run shards through the sequential
// search engine (search.RunShard) and post back mergeable reports,
// telemetry deltas, and trace events.
//
// The determinism contract is inherited from the sharding layer: the
// coordinator merges shard reports in plan order with the same merge
// code the in-process parallel driver uses, so the final run report of
// a distributed search is byte-identical to a local run with
// Parallelism = RefParallelism of the same program, seed, and options
// — regardless of worker count, worker crashes, lease expiries, or a
// restart that re-seeds the coordinator with recorded progress (Prior).
//
// Robustness model:
//
//   - Work items are leases with a TTL. Workers extend their leases by
//     heartbeating; a lease that expires (worker crashed, wedged, or
//     partitioned) requeues its shard with the failed worker excluded.
//     One lease call grants a whole wave of single-execution shards
//     (LeaseBatch) and one result call posts them back, so the protocol
//     costs round trips per wave of the frontier, not per execution.
//   - Retries are bounded (CoordinatorConfig.MaxShardAttempts); a
//     shard that keeps failing is abandoned and surfaces in the merged
//     report as Skipped work plus structured WorkerFailures — explicit
//     coverage loss, never a silent gap.
//   - The coordinator itself keeps nothing on disk. Its owner, the jobs
//     service, records every shard decision through the OnShardDone
//     write-ahead hook and hands the record back as Prior after a
//     restart, so decided shards are never re-run.
//
// See docs/DISTRIBUTED.md for the protocol walkthrough.
package dist

import (
	"time"

	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// Protocol endpoints. A worker asks for work at PathLease under the
// jobs service's URL, and sends a grant's heartbeats, results and
// events to the other endpoints under the grant's Path (the service's
// /job/<id>). All are POST with JSON bodies (events: raw JSONL); the DPOR
// payloads inside them are por's binary codec.
const (
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
	PathEvents    = "/v1/events"
)

// SpecFromOptions is o.Spec() under the name program: the search as a
// job submission or a lease grant carries it.
func SpecFromOptions(program string, o search.Options) search.Options {
	o.ProgramName = program
	return o.Spec()
}

// LeaseBatch bounds how many single-execution shards (DPOR units) one
// lease call grants. Subtree and range shards are granted one per call
// so workers keep sharing them.
const LeaseBatch = 32

// LeaseHold bounds how long a lease call with nothing grantable (no
// mounted job with anything grantable) is held open waiting for that to
// change before it is answered "wait". It stays well below the callers'
// per-attempt deadlines.
const LeaseHold = 2 * time.Second

// LeaseRequest asks for work: one shard, or a batch of units. WorkerID
// is the worker's own name for itself, unique to its process; a
// coordinator keeps it to exclude a worker from a shard it failed.
type LeaseRequest struct {
	WorkerID string `json:"workerId"`
}

// Lease statuses.
const (
	// LeaseWork: Grants is non-empty; run them in order.
	LeaseWork = "work"
	// LeaseWait: nothing became grantable within LeaseHold (all pending
	// shards are excluded for this worker, or everything is leased); ask
	// again.
	LeaseWait = "wait"
	// LeaseDone: the service has closed; the worker should exit.
	LeaseDone = "done"
)

// Grant is one leased shard.
type Grant struct {
	LeaseID string       `json:"leaseId"`
	Shard   search.Shard `json:"shard"`
}

// LeaseResponse grants shards in plan order (or tells the worker to
// wait/exit). A grant names its job: everything below Grants is set
// with them, and is all a worker needs to run them and report back.
type LeaseResponse struct {
	Status string  `json:"status"`
	Grants []Grant `json:"grants,omitempty"`
	// Job names the search the grants belong to and Path is where their
	// heartbeats, results and events go, relative to the URL the lease
	// was asked at.
	Job  string `json:"job,omitempty"`
	Path string `json:"path,omitempty"`
	// Spec is the search to run (search.Options.Spec); OptionsHash the
	// plan's semantic-options fingerprint, which the worker recomputes
	// from Spec and refuses to run on mismatch.
	Spec        *search.Options `json:"spec,omitempty"`
	OptionsHash uint64          `json:"optionsHash,omitempty"`
	// LeaseTTLMS is the lease duration; the worker must heartbeat well
	// within it.
	LeaseTTLMS int64 `json:"leaseTtlMs,omitempty"`
	// WantEvents tells the worker whether to forward trace events.
	WantEvents bool `json:"wantEvents,omitempty"`
}

// HeartbeatRequest keeps a worker's leases alive and piggybacks its
// telemetry delta.
type HeartbeatRequest struct {
	WorkerID string   `json:"workerId"`
	LeaseIDs []string `json:"leaseIds,omitempty"`
	// Metrics is the counter-wise delta (obs.Snapshot.Sub) of the
	// worker's registry since the last delta it delivered, on a
	// heartbeat or a result.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// HeartbeatResponse lists leases the worker must abandon (expired and
// requeued, or past the merge's cancellation horizon) and whether the
// search is over.
type HeartbeatResponse struct {
	Cancelled []string `json:"cancelled,omitempty"`
	Done      bool     `json:"done,omitempty"`
}

// ShardResult is one finished shard: either a report or a failure
// description (worker-side panic), never both. A failure without a
// lease is advisory: recorded for the report, charged to no shard.
type ShardResult struct {
	LeaseID string         `json:"leaseId"`
	Shard   int            `json:"shard"`
	Report  *search.Report `json:"report,omitempty"`
	Failure string         `json:"failure,omitempty"`
}

// ResultRequest posts the finished shards of one lease batch, in the
// order they were granted, and the worker's telemetry delta (see
// HeartbeatRequest.Metrics).
type ResultRequest struct {
	WorkerID string        `json:"workerId"`
	Results  []ShardResult `json:"results"`
	Metrics  *obs.Snapshot `json:"metrics,omitempty"`
}

// ResultResponse acknowledges a result batch; Accepted[i] answers
// Results[i]. An entry is false when the shard was already decided (a
// late result after the lease expired and a retry finished first) or
// was cancelled; the worker just moves on.
type ResultResponse struct {
	Accepted []bool `json:"accepted"`
	Done     bool   `json:"done,omitempty"`
}
