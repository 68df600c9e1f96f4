package search

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"fairmc/internal/core"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
)

// This file implements checkpoint/resume: a long-running search
// periodically serializes its progress to a JSON file so that a crash,
// an eviction, or a deliberate SIGINT loses at most one checkpoint
// interval of work. A checkpoint captures (a) the accumulated Report
// counters and findings, and (b) the position in the deterministic
// enumeration — enough to restart the search at exactly the same point:
//
//   - Sequential random strategies (RandomWalk, PCT): executions are
//     seeded by global index (rng.Mix(Seed, i)), so the position is the
//     executions counter; NextIndex records the next index to run.
//   - Sequential systematic search: the DFS stack (alternatives and
//     the index taken at each frame), restored verbatim so the next
//     execution replays the saved prefix and explores below it.
//   - Every sharded search (Parallelism > 1, DPOR): one Frontier — how
//     many shards of the plan are merged and the unmerged shards in plan
//     order, whatever their kind. Resuming re-runs only those (results
//     that were in flight at checkpoint time are recomputed).
//
// Findings (FirstBug, Divergence, FirstWedge) are stored as their full
// engine.Result: replay cannot regenerate a wedge (the wedged step is
// deliberately absent from the schedule), and storing the result makes
// a resumed report identical to an uninterrupted one by construction.
//
// Writes are atomic (tmp file + rename in the destination directory)
// so a crash mid-write leaves the previous checkpoint intact. Meta
// identifies what the checkpoint belongs to; Options.Validate rejects
// a resume whose program, strategy, seed, options hash, or parallelism
// does not match, and rejects Done checkpoints (the search stopped for
// a reason resuming cannot continue past, e.g. a first finding —
// rerunning it would double-count the finding's execution).

// CheckpointVersion is the on-disk format version; bump on any change
// to the Checkpoint schema. This build reads exactly the version it
// writes: a checkpoint is a short-lived artifact of one search, and a
// resumed search must reproduce the uninterrupted report byte for byte,
// which no partially understood older format can promise.
const CheckpointVersion = 6

// defaultCheckpointInterval is used when CheckpointPath is set but
// CheckpointInterval is zero.
const defaultCheckpointInterval = 30 * time.Second

// CheckpointMeta identifies the search a checkpoint belongs to. All
// fields are validated on resume.
type CheckpointMeta struct {
	// Program is Options.ProgramName at write time.
	Program string `json:"program,omitempty"`
	// Strategy is "random", "pct", or "dfs" (any systematic search).
	Strategy string `json:"strategy"`
	Seed     uint64 `json:"seed"`
	// OptionsHash fingerprints the semantic options (everything that
	// changes the explored schedule set). Budget options
	// (MaxExecutions, TimeLimit) and operational options (Watchdog,
	// checkpoint settings) are excluded so a resume may raise budgets.
	OptionsHash uint64 `json:"optionsHash"`
	Parallelism int    `json:"parallelism"`
}

// savedFrame is one DFS stack frame of the sequential systematic
// searcher, including its conformance digest so a resumed search
// keeps verifying replays of the saved prefix.
type savedFrame struct {
	Alts   []engine.Alt    `json:"alts"`
	Idx    int             `json:"idx"`
	Dig    uint64          `json:"dig,omitempty"`
	HasDig bool            `json:"hasDig,omitempty"`
	Ops    []engine.OpInfo `json:"ops,omitempty"`
}

// SeqState is the sequential systematic searcher's position.
type SeqState struct {
	Stack []savedFrame `json:"stack"`
}

// StrideState is the sequential random searcher's position: the next
// global execution index.
type StrideState struct {
	NextIndex int64 `json:"nextIndex"`
}

// SavedPrefix is one frontier prefix of a systematic search's plan.
type SavedPrefix struct {
	Sched []engine.Alt        `json:"sched"`
	Digs  []engine.StepDigest `json:"digs,omitempty"`
	Leaf  bool                `json:"leaf,omitempty"`
}

// Frontier is the sharded driver's position in its plan, for every
// shard kind.
type Frontier struct {
	// Merged counts the plan's shards consumed by the merge across all
	// sessions of the search; Shards[0] has plan index Merged.
	Merged int `json:"merged"`
	// AllExhausted is false once any shard was skipped, quarantined, or
	// otherwise left part of its space unexplored.
	AllExhausted bool `json:"allExhausted"`
	// Shards are the planned-but-unmerged shards in plan order.
	Shards []Shard `json:"shards,omitempty"`
	// Traces are the maximal paths of a DPOR merge's dedup set, which is
	// rebuilt from them (see DporTraceRec).
	Traces []DporTraceRec `json:"traces,omitempty"`
}

// Checkpoint is a resumable snapshot of search progress.
type Checkpoint struct {
	Version int            `json:"version"`
	Meta    CheckpointMeta `json:"meta"`
	// Done marks a terminal checkpoint: the search stopped on a
	// finding or exhausted the tree. Resuming it would re-count work,
	// so Validate rejects it; resumable stops are ExecBounded,
	// TimedOut, and Interrupted.
	Done bool `json:"done,omitempty"`
	// Counters is the accumulated Report.Counters; ElapsedNS the
	// accumulated wall-clock time.
	Counters  Counters `json:"counters"`
	ElapsedNS int64    `json:"elapsedNs"`

	FirstBug            *engine.Result `json:"firstBug,omitempty"`
	FirstBugExecution   int64          `json:"firstBugExecution,omitempty"`
	Divergence          *engine.Result `json:"divergence,omitempty"`
	DivergenceExecution int64          `json:"divergenceExecution,omitempty"`
	FirstWedge          *engine.Result `json:"firstWedge,omitempty"`
	FirstWedgeExecution int64          `json:"firstWedgeExecution,omitempty"`

	WorkerFailures []WorkerFailure `json:"workerFailures,omitempty"`
	// Nondeterminism carries the quarantined-subtree reports alongside
	// the Counters.Quarantined count (validated for consistency on
	// resume).
	Nondeterminism []NondeterminismReport `json:"nondeterminism,omitempty"`

	// Exactly one position is set: Stride or Seq by the sequential
	// searcher, Frontier by the sharded driver.
	Stride   *StrideState `json:"stride,omitempty"`
	Seq      *SeqState    `json:"seq,omitempty"`
	Frontier *Frontier    `json:"frontier,omitempty"`
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("search: reading checkpoint: %w", err)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("search: decoding checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("search: checkpoint %s has format version %d, this build reads version %d",
			path, ck.Version, CheckpointVersion)
	}
	return ck, nil
}

// WriteFile atomically and durably persists the checkpoint; see
// fsx.WriteFileAtomic for the exact guarantees.
func (ck *Checkpoint) WriteFile(path string) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("search: encoding checkpoint: %w", err)
	}
	if err := fsx.WriteFileAtomic(fsx.OS, path, data); err != nil {
		return fmt.Errorf("search: writing checkpoint: %w", err)
	}
	return nil
}

// strategyOf names the enumeration strategy for checkpoint Meta.
func strategyOf(o *Options) string {
	switch {
	case o.RandomWalk:
		return "random"
	case o.PCT:
		return "pct"
	default:
		return "dfs"
	}
}

// StrategyName returns the canonical name of the enumeration strategy
// the options select: "random", "pct", or "dfs" (any systematic
// search). It is the same name checkpoints carry in their Meta and run
// reports carry in their Strategy field.
func StrategyName(o *Options) string { return strategyOf(o) }

// optionsHash fingerprints the options that determine the schedule
// enumeration. Budget fields (MaxExecutions, TimeLimit) and
// operational fields (Watchdog, checkpoint/stop plumbing, Monitor) are
// deliberately excluded: resuming with a larger budget is the point of
// checkpointing.
func optionsHash(o *Options) uint64 {
	h := fnv.New64a()
	b := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	i := func(v int64) {
		var buf [8]byte
		for k := 0; k < 8; k++ {
			buf[k] = byte(v >> (8 * k))
		}
		h.Write(buf[:])
	}
	b(o.Fair)
	i(int64(o.FairK))
	i(int64(o.ContextBound))
	i(int64(o.DepthBound))
	b(o.RandomTail)
	b(o.RandomWalk)
	b(o.PCT)
	i(int64(o.PCTDepth))
	i(o.MaxSteps)
	i(int64(o.Seed))
	b(o.StatefulPrune)
	b(o.DPOR)
	b(o.SleepSets)
	b(o.ContinueAfterViolation)
	b(o.ContinueAfterDivergence)
	b(o.RecordTrace)
	// DisableConformance is semantic: it changes which subtrees get
	// quarantined, hence the explored tree. DivergenceRetries and
	// ConfirmRuns are operational (retry/confirmation effort) and may
	// change across a resume — as is NoFastPath, which by construction
	// does not change any explored schedule or report byte.
	b(o.DisableConformance)
	// The memory model folds in only when it is not the default: an SC
	// search hashes the same whether or not it named its model (the hash
	// also fingerprints plans in job ledgers).
	if m := o.memModel(); m != core.MemSC {
		i(int64(m))
		i(int64(o.TSOBufCap))
	}
	return h.Sum64()
}

// buildCheckpoint captures the position-independent progress; the
// caller attaches the position (Stride, Seq or Frontier).
func buildCheckpoint(opts *Options, rep *Report, elapsed time.Duration, done bool) *Checkpoint {
	return &Checkpoint{
		Version: CheckpointVersion,
		Meta: CheckpointMeta{
			Program:     opts.ProgramName,
			Strategy:    strategyOf(opts),
			Seed:        opts.Seed,
			OptionsHash: optionsHash(opts),
			Parallelism: opts.Parallelism,
		},
		Done:                done,
		Counters:            rep.Counters,
		ElapsedNS:           int64(elapsed),
		FirstBug:            rep.FirstBug,
		FirstBugExecution:   rep.FirstBugExecution,
		Divergence:          rep.Divergence,
		DivergenceExecution: rep.DivergenceExecution,
		FirstWedge:          rep.FirstWedge,
		FirstWedgeExecution: rep.FirstWedgeExecution,
		WorkerFailures:      rep.WorkerFailures,
		Nondeterminism:      rep.Nondeterminism,
	}
}

// report is the Report a search resumed from ck starts with: the
// checkpoint's accumulated progress.
func (ck *Checkpoint) report() Report {
	return Report{
		Counters:            ck.Counters,
		FirstBug:            ck.FirstBug,
		FirstBugExecution:   ck.FirstBugExecution,
		Divergence:          ck.Divergence,
		DivergenceExecution: ck.DivergenceExecution,
		FirstWedge:          ck.FirstWedge,
		FirstWedgeExecution: ck.FirstWedgeExecution,
		WorkerFailures:      ck.WorkerFailures,
		Nondeterminism:      ck.Nondeterminism,
	}
}

// write persists ck at opts.CheckpointPath and publishes the write to
// the observability layer. A failure is recorded on rep (first one
// wins), not fatal: losing resumability is better than losing the run.
func (ck *Checkpoint) write(opts *Options, rep *Report) {
	if err := ck.WriteFile(opts.CheckpointPath); err != nil {
		if rep.CheckpointError == "" {
			rep.CheckpointError = err.Error()
		}
		return
	}
	if m := opts.Metrics; m != nil {
		m.Checkpoints.Inc()
	}
	if sink := opts.EventSink; sink != nil {
		sink.Emit(obs.Event{Type: "checkpoint", Checkpoint: &obs.CheckpointEvent{
			Path:       opts.CheckpointPath,
			Executions: rep.Executions,
		}})
	}
}

// checkpointDue reports whether a periodic checkpoint is due, advancing
// *last when it is. The first call only starts the clock.
func (o *Options) checkpointDue(last *time.Time) bool {
	iv := o.CheckpointInterval
	if iv <= 0 {
		iv = defaultCheckpointInterval
	}
	now := time.Now()
	if !last.IsZero() && now.Sub(*last) < iv {
		return false
	}
	due := !last.IsZero()
	*last = now
	return due
}

// observeResume publishes a resume-from-checkpoint to the event stream.
func observeResume(opts *Options, ck *Checkpoint) {
	if sink := opts.EventSink; sink != nil {
		sink.Emit(obs.Event{Type: "resume", Checkpoint: &obs.CheckpointEvent{
			Path:       opts.CheckpointPath,
			Executions: ck.Counters.Executions,
		}})
	}
}
