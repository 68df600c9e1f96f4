package jobs

// The WAL schema of the checking service. Each record type below is
// the Data payload of one ledger.Record; the ledger owns framing,
// checksums, and sequence numbers, this file owns meaning. A job's plan
// and its shard decisions are a search's own records (search.RecPlan,
// search.RecShardDone — the ones a check -checkpoint directory holds),
// folded back the one way a search's are (search.ShardMerger.Fold).
//
// Commit discipline (what is fsynced when):
//
//   - recSubmitted, search.RecPlan, recDone are commit points: the
//     service must not acknowledge a submission, grant work against a
//     plan, or report a job terminal unless the record is durable. All
//     three are fsynced before anything acts on them.
//   - search.RecShardDone is THE commit point of the whole design: the
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
//     a shard with a committed shard_done before it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"fairmc/internal/dist"
	"fairmc/internal/ledger"
	"fairmc/internal/search"
)

// The service's own WAL record types.
const (
	recServerStart = "server_start"
	recSubmitted   = "job_submitted"
	recGrant       = "shard_grant"
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
	Job            string         `json:"job"`
	Spec           search.Options `json:"spec"`
	RefParallelism int            `json:"refParallelism"`
}

// grantRec is the audit trail of one lease call: every shard it
// granted, in plan order.
type grantRec struct {
	Job    string `json:"job"`
	Shards []int  `json:"shards"`
	Worker string `json:"worker"`
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
	Spec           search.Options
	RefParallelism int
	State          string
	Error          string
	OptionsHash    uint64
	Plan           *search.Plan
	Done           []search.ShardDoneRec // decided shards, in ledger order
	Report         *search.Report        // final merged report (terminal)
	Unreadable     string                // why a plan or shard_done record of the job did not decode
	RunReport      []byte                // deterministic run-report bytes (terminal)
	SubmitSeq      uint64                // ledger seq of the submission (FIFO order)
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
// newer build degrades to a visible report, not a crash — and a job
// whose plan or shard_done record is one of them fails when it runs.
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
				State:          StateQueued,
				SubmitSeq:      r.Seq,
			}
			// An unknown key is a setting this build would drop: fail the job.
			if err := decodeStrict(bytes.NewReader(r.Data), &submittedRec{}); err != nil {
				st.bad(r, err)
				j.State = StateFailed
				j.Error = fmt.Sprintf("submission recorded by another version of the service: %v", err)
			}
			st.jobs[rec.Job] = j
			st.order = append(st.order, rec.Job)
			var n int
			if _, err := fmt.Sscanf(rec.Job, "j%d", &n); err == nil && n > st.maxJob {
				st.maxJob = n
			}
		case search.RecPlan:
			rec, err := search.DecodePlanRec(r.Data)
			if err != nil {
				st.unreadable(r, rec.Job, err)
				continue
			}
			if j := st.jobs[rec.Job]; j != nil {
				j.Plan = rec.Plan
				j.OptionsHash = rec.OptionsHash
			}
		case recGrant:
			// Audit only.
		case search.RecShardDone:
			rec, err := search.DecodeShardDone(r.Data)
			if err != nil {
				st.unreadable(r, rec.Job, err)
				continue
			}
			if j := st.jobs[rec.Job]; j != nil {
				j.Done = append(j.Done, *rec)
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

// unreadable reports a plan or shard_done record that does not decode,
// and refuses its job — the one its header names, or, for another
// version's JSON record, its "job" key: the job's progress is another
// version's, and a job planned or run again over it would mix two
// builds' records.
func (st *replayState) unreadable(r ledger.Record, job string, err error) {
	st.bad(r, err)
	if job == "" {
		var rec struct{ Job string }
		_ = json.Unmarshal(r.Data, &rec) // what does not decode names no job
		job = rec.Job
	}
	if j := st.jobs[job]; j != nil && j.Unreadable == "" {
		j.Unreadable = fmt.Sprintf("the %s record at seq %d does not decode: %v (ledger written by another version)", r.Type, r.Seq, err)
	}
}

// decodeStrict decodes one JSON value into v, refusing a key v does not
// name: a submission from another version must not lose a field silently.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
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
// Prior seed: the recorded plan and its decided shards, to be folded
// over it; abandonments re-surface as WorkerFailures so the final report
// still names the coverage loss.
func (j *jobState) prior() *dist.Prior {
	if j.Plan == nil {
		return nil
	}
	p := &dist.Prior{Plan: j.Plan, Done: j.Done}
	for _, d := range j.Done {
		if d.Report == nil {
			p.Failures = append(p.Failures, search.WorkerFailure{
				Mode:    "dist",
				Unit:    int64(d.Shard),
				Attempt: 1,
				Panic:   d.Abandoned,
			})
		}
	}
	return p
}
