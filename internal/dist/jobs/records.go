package jobs

// The WAL schema of the checking service. Each record type below is
// the Data payload of one ledger.Record; the ledger owns framing,
// checksums, and sequence numbers, this file owns meaning.
//
// Commit discipline (what is fsynced when):
//
//   - recSubmitted, recPlan, recDone are commit points: the service
//     must not acknowledge a submission, grant work against a plan, or
//     report a job terminal unless the record is durable. All three
//     are fsynced before anything acts on them.
//   - recShardDone is THE commit point of the whole design: the
//     records of one result batch are appended as a group and fsynced
//     once BEFORE any of the batch's reports reaches the merger, so a
//     crash in between costs at most re-exploration of shards whose
//     completion never committed — never a shard the ledger calls
//     complete (those are re-seeded via dist.Prior and not re-leased).
//     A crash inside the group leaves a prefix of it, which replay
//     adopts.
//   - recGrant is an audit record (who was asked to explore what); it
//     rides along unsynced and its loss is harmless.
//   - recServerStart marks a process boundary so post-mortem audits
//     can check the recovery invariant: no grant after a restart for
//     a shard with a committed recShardDone before it.

import (
	"encoding/json"
	"fmt"
	"sort"

	"fairmc/internal/dist"
	"fairmc/internal/ledger"
	"fairmc/internal/search"
)

// WAL record types.
const (
	recServerStart = "server_start"
	recSubmitted   = "job_submitted"
	recPlan        = "job_plan"
	recGrant       = "shard_grant"
	recShardDone   = "shard_done"
	recDone        = "job_done"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// serverStartRec marks a service process (re)start.
type serverStartRec struct {
	// Jobs is how many non-terminal jobs the replay re-queued
	// (informational, for audits).
	Jobs int `json:"jobs"`
}

// submittedRec commits a job submission.
type submittedRec struct {
	Job            string          `json:"job"`
	Spec           dist.SearchSpec `json:"spec"`
	RefParallelism int             `json:"refParallelism"`
	ConfirmRuns    int             `json:"confirmRuns,omitempty"`
}

// planRec commits a job's shard plan. The plan is recorded, never
// re-derived: a restarted service must grant exactly the shards the
// original planning produced.
type planRec struct {
	Job         string       `json:"job"`
	OptionsHash uint64       `json:"optionsHash"`
	Plan        *search.Plan `json:"plan"`
}

// grantRec is the audit trail of one lease call: every shard it
// granted, in plan order.
type grantRec struct {
	Job    string `json:"job"`
	Shards []int  `json:"shards"`
	Worker string `json:"worker"`
}

// shardDoneRec commits one decided shard: a completed report, or an
// abandonment (Report nil, Abandoned set).
type shardDoneRec struct {
	Job         string         `json:"job"`
	OptionsHash uint64         `json:"optionsHash"`
	Shard       int            `json:"shard"`
	Report      *search.Report `json:"report,omitempty"`
	Abandoned   string         `json:"abandoned,omitempty"`
}

// doneRec commits a job's terminal state. RunReport carries the
// deterministic run-report bytes so status and artifact requests
// after a restart are served from the ledger without re-exploration.
// It is []byte (base64 on the wire), NOT json.RawMessage: embedding
// raw JSON would let the record marshaler compact and HTML-escape it,
// and the artifact must survive the round-trip byte-identical.
type doneRec struct {
	Job       string         `json:"job"`
	State     string         `json:"state"` // done | failed | cancelled
	Error     string         `json:"error,omitempty"`
	Report    *search.Report `json:"report,omitempty"`
	RunReport []byte         `json:"runReport,omitempty"`
}

// jobState is the replayed state of one job.
type jobState struct {
	ID             string
	Spec           dist.SearchSpec
	RefParallelism int
	ConfirmRuns    int
	State          string
	Error          string
	OptionsHash    uint64
	Plan           *search.Plan
	Completed      map[int]*search.Report // decided shards; nil = abandoned
	Abandoned      map[int]string         // abandonment reasons
	Report         *search.Report         // final merged report (terminal)
	RunReport      []byte                 // deterministic run-report bytes (terminal)
	SubmitSeq      uint64                 // ledger seq of the submission (FIFO order)
}

// replayState is everything rebuilt from the WAL.
type replayState struct {
	jobs    map[string]*jobState
	order   []string // submission order (by ledger seq)
	maxJob  int      // highest numeric job id seen
	badRecs []string // structurally invalid records (reported, not fatal)
}

// rebuild folds replayed ledger records into service state. Records
// that fail to decode are collected in badRecs — a WAL written by a
// newer build degrades to a visible report, not a crash.
func rebuild(records []ledger.Record) *replayState {
	st := &replayState{jobs: map[string]*jobState{}}
	for _, r := range records {
		switch r.Type {
		case recServerStart:
			// Process boundary; nothing to fold.
		case recSubmitted:
			var rec submittedRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				st.bad(r, err)
				continue
			}
			j := &jobState{
				ID:             rec.Job,
				Spec:           rec.Spec,
				RefParallelism: rec.RefParallelism,
				ConfirmRuns:    rec.ConfirmRuns,
				State:          StateQueued,
				Completed:      map[int]*search.Report{},
				Abandoned:      map[int]string{},
				SubmitSeq:      r.Seq,
			}
			st.jobs[rec.Job] = j
			st.order = append(st.order, rec.Job)
			var n int
			if _, err := fmt.Sscanf(rec.Job, "j%d", &n); err == nil && n > st.maxJob {
				st.maxJob = n
			}
		case recPlan:
			var rec planRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				st.bad(r, err)
				continue
			}
			if j := st.jobs[rec.Job]; j != nil {
				j.Plan = rec.Plan
				j.OptionsHash = rec.OptionsHash
			}
		case recGrant:
			// Audit only.
		case recShardDone:
			var rec shardDoneRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				st.bad(r, err)
				continue
			}
			if j := st.jobs[rec.Job]; j != nil {
				j.Completed[rec.Shard] = rec.Report
				if rec.Report == nil {
					j.Abandoned[rec.Shard] = rec.Abandoned
				}
			}
		case recDone:
			var rec doneRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				st.bad(r, err)
				continue
			}
			if j := st.jobs[rec.Job]; j != nil {
				j.State = rec.State
				j.Error = rec.Error
				j.Report = rec.Report
				j.RunReport = rec.RunReport
			}
		default:
			st.badRecs = append(st.badRecs, fmt.Sprintf("seq %d: unknown record type %q", r.Seq, r.Type))
		}
	}
	return st
}

func (st *replayState) bad(r ledger.Record, err error) {
	st.badRecs = append(st.badRecs, fmt.Sprintf("seq %d (%s): %v", r.Seq, r.Type, err))
}

// pending returns the non-terminal jobs in submission order — the
// restart queue.
func (st *replayState) pending() []*jobState {
	var out []*jobState
	for _, id := range st.order {
		j := st.jobs[id]
		if j != nil && (j.State == StateQueued || j.State == StateRunning) {
			out = append(out, j)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].SubmitSeq < out[b].SubmitSeq })
	return out
}

// prior converts a job's replayed progress into the coordinator's
// Prior seed: decided shards are adopted, abandonments re-surface as
// WorkerFailures so the final report still names the coverage loss.
func (j *jobState) prior() *dist.Prior {
	if j.Plan == nil {
		return nil
	}
	p := &dist.Prior{Plan: j.Plan, Completed: map[int]*search.Report{}}
	for idx, rep := range j.Completed {
		p.Completed[idx] = rep
	}
	idxs := make([]int, 0, len(j.Abandoned))
	for idx := range j.Abandoned {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		p.Failures = append(p.Failures, search.WorkerFailure{
			Mode:    "dist",
			Unit:    int64(idx),
			Attempt: 1,
			Panic:   j.Abandoned[idx],
		})
	}
	return p
}
