// Package dist distributes a search across processes and machines: a
// coordinator owns the shard plan (search.PlanShards) and hands out
// lease-based work items over plain HTTP+JSON; workers run shards
// through the sequential search engine (search.RunShard) and post back
// mergeable reports, telemetry deltas, and trace events.
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
//   - The coordinator itself keeps nothing on disk. Its owner — the
//     jobs service (internal/dist/jobs), the only thing that serves one —
//     records every shard decision through the OnShardDone write-ahead
//     hook and hands the record back as Prior after a restart, so
//     decided shards are never re-run.
//
// See docs/DISTRIBUTED.md for the protocol walkthrough.
package dist

import (
	"time"

	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// Protocol endpoints. A worker asks for work at PathLease under the URL
// it was given — a bare coordinator's, or the jobs service's — and
// sends a grant's heartbeats, results and events to the same endpoints
// under the grant's Path (the jobs service's /job/<id>; "" at a bare
// coordinator). lease/heartbeat/result/events are POST with JSON bodies
// (events: raw JSONL); status is GET.
const (
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
	PathEvents    = "/v1/events"
	PathStatus    = "/status"
)

// SearchSpec is the wire form of the search configuration: every
// semantic option plus the operational ones a worker needs. Workers
// rebuild search.Options from it and verify the rebuilt options hash
// against the plan's before running anything, so configuration skew
// (version drift, a worker pointed at the wrong coordinator) is caught
// before any work is handed out.
type SearchSpec struct {
	Program                 string `json:"program"`
	Fair                    bool   `json:"fair"`
	FairK                   int    `json:"fairK,omitempty"`
	ContextBound            int    `json:"contextBound"`
	DepthBound              int    `json:"depthBound,omitempty"`
	RandomTail              bool   `json:"randomTail,omitempty"`
	RandomWalk              bool   `json:"randomWalk,omitempty"`
	PCT                     bool   `json:"pct,omitempty"`
	PCTDepth                int    `json:"pctDepth,omitempty"`
	MaxSteps                int64  `json:"maxSteps,omitempty"`
	MaxExecutions           int64  `json:"maxExecutions,omitempty"`
	MemModel                string `json:"memModel,omitempty"`
	TSOBufCap               int    `json:"tsoBufCap,omitempty"`
	Seed                    uint64 `json:"seed"`
	StatefulPrune           bool   `json:"statefulPrune,omitempty"`
	DPOR                    bool   `json:"dpor,omitempty"`
	SleepSets               bool   `json:"sleepSets,omitempty"`
	DivergenceRetries       int    `json:"divergenceRetries,omitempty"`
	DisableConformance      bool   `json:"disableConformance,omitempty"`
	ContinueAfterViolation  bool   `json:"continueAfterViolation,omitempty"`
	ContinueAfterDivergence bool   `json:"continueAfterDivergence,omitempty"`
	RecordTrace             bool   `json:"recordTrace,omitempty"`
	WatchdogMS              int64  `json:"watchdogMs,omitempty"`
	CheckpointIntervalMS    int64  `json:"checkpointIntervalMs,omitempty"`
}

// SpecFromOptions captures the distributable part of opts.
func SpecFromOptions(program string, o search.Options) SearchSpec {
	return SearchSpec{
		Program:                 program,
		Fair:                    o.Fair,
		FairK:                   o.FairK,
		ContextBound:            o.ContextBound,
		DepthBound:              o.DepthBound,
		RandomTail:              o.RandomTail,
		RandomWalk:              o.RandomWalk,
		PCT:                     o.PCT,
		PCTDepth:                o.PCTDepth,
		MaxSteps:                o.MaxSteps,
		MaxExecutions:           o.MaxExecutions,
		MemModel:                o.MemModel,
		TSOBufCap:               o.TSOBufCap,
		Seed:                    o.Seed,
		StatefulPrune:           o.StatefulPrune,
		DPOR:                    o.DPOR,
		SleepSets:               o.SleepSets,
		DivergenceRetries:       o.DivergenceRetries,
		DisableConformance:      o.DisableConformance,
		ContinueAfterViolation:  o.ContinueAfterViolation,
		ContinueAfterDivergence: o.ContinueAfterDivergence,
		RecordTrace:             o.RecordTrace,
		WatchdogMS:              int64(o.Watchdog / time.Millisecond),
		CheckpointIntervalMS:    int64(o.CheckpointInterval / time.Millisecond),
	}
}

// Options rebuilds the worker-side search options. Parallelism is 1:
// shards always run on the sequential engine.
func (s SearchSpec) Options() search.Options {
	return search.Options{
		Fair:                    s.Fair,
		FairK:                   s.FairK,
		ContextBound:            s.ContextBound,
		DepthBound:              s.DepthBound,
		RandomTail:              s.RandomTail,
		RandomWalk:              s.RandomWalk,
		PCT:                     s.PCT,
		PCTDepth:                s.PCTDepth,
		MaxSteps:                s.MaxSteps,
		MaxExecutions:           s.MaxExecutions,
		MemModel:                s.MemModel,
		TSOBufCap:               s.TSOBufCap,
		Seed:                    s.Seed,
		StatefulPrune:           s.StatefulPrune,
		DPOR:                    s.DPOR,
		SleepSets:               s.SleepSets,
		DivergenceRetries:       s.DivergenceRetries,
		DisableConformance:      s.DisableConformance,
		ContinueAfterViolation:  s.ContinueAfterViolation,
		ContinueAfterDivergence: s.ContinueAfterDivergence,
		RecordTrace:             s.RecordTrace,
		Watchdog:                time.Duration(s.WatchdogMS) * time.Millisecond,
		CheckpointInterval:      time.Duration(s.CheckpointIntervalMS) * time.Millisecond,
		Parallelism:             1,
		ProgramName:             s.Program,
	}
}

// LeaseBatch bounds how many single-execution shards (DPOR units) one
// lease call grants. Subtree and range shards are granted one per call
// so workers keep sharing them.
const LeaseBatch = 32

// LeaseHold bounds how long a lease call with nothing grantable (at the
// jobs service: no mounted job with anything grantable) is held open
// waiting for that to change before it is answered "wait". It stays
// well below the callers' per-attempt deadlines.
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
	// LeaseDone: the search is complete — at the jobs service, the
	// service has closed; the worker should exit.
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
	// Job names the search the grants belong to ("" at a bare
	// coordinator) and Path is where their heartbeats, results and
	// events go, relative to the URL the lease was asked at.
	Job  string `json:"job,omitempty"`
	Path string `json:"path,omitempty"`
	// Spec is the search to run; OptionsHash the plan's semantic-options
	// fingerprint, which the worker recomputes from Spec and refuses to
	// run on mismatch.
	Spec        *SearchSpec `json:"spec,omitempty"`
	OptionsHash uint64      `json:"optionsHash,omitempty"`
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

// StatusResponse is the coordinator's public progress summary.
type StatusResponse struct {
	Program   string `json:"program"`
	Strategy  string `json:"strategy"`
	Shards    int    `json:"shards"`
	Merged    int    `json:"merged"`
	Completed int    `json:"completed"`
	Abandoned int    `json:"abandoned"`
	Leased    int    `json:"leased"`
	Done      bool   `json:"done"`
}
