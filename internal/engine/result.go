package engine

import (
	"fmt"
	"strings"

	"fairmc/internal/tidset"
)

// Outcome classifies how one execution ended.
type Outcome int8

const (
	// Terminated: every thread ran to completion (a terminating
	// execution in the paper's sense).
	Terminated Outcome = iota
	// Deadlock: no thread is enabled but some threads are still live.
	// By Theorem 3 the fair scheduler never reports a false deadlock.
	Deadlock
	// Violation: an assertion failed, a model API was misused, or the
	// program panicked.
	Violation
	// Diverged: the execution exceeded the step bound. Under the fair
	// scheduler this is the signature of a liveness error: in the
	// limit the algorithm generates an infinite execution that either
	// violates the good-samaritan property or is a fair
	// nontermination (livelock). See internal/liveness.
	Diverged
	// Aborted: the chooser cut the execution short (search pruning).
	Aborted
	// Wedged: the scheduled thread failed to reach its next scheduling
	// point within Config.Watchdog — it is blocked or spinning outside
	// the checker's API, so the engine can neither continue nor unwind
	// it. The execution ends, the offending thread is leaked (with the
	// hub that resumed it), and Result.Wedge identifies it.
	Wedged
)

func (o Outcome) String() string {
	switch o {
	case Terminated:
		return "terminated"
	case Deadlock:
		return "deadlock"
	case Violation:
		return "violation"
	case Diverged:
		return "diverged"
	case Aborted:
		return "aborted"
	case Wedged:
		return "wedged"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// ViolationInfo describes a safety violation.
type ViolationInfo struct {
	Tid     tidset.Tid
	Msg     string
	IsPanic bool   // true if the thread body panicked
	Stack   string // goroutine stack for panics
}

func (v *ViolationInfo) String() string {
	kind := "failure"
	if v.IsPanic {
		kind = "panic"
	}
	return fmt.Sprintf("thread %d %s: %s", v.Tid, kind, v.Msg)
}

// WedgeInfo identifies the thread that tripped the execution watchdog:
// the thread that was granted a step and never parked or exited again.
// LastOp is the operation the engine granted it — the last controlled
// transition before it wandered off into uncontrolled code.
type WedgeInfo struct {
	Tid    tidset.Tid `json:"tid"`
	Name   string     `json:"name"`
	LastOp OpInfo     `json:"lastOp"`
	// Step is the index of the granted-but-never-completed step.
	Step int64 `json:"step"`
}

func (w *WedgeInfo) String() string {
	return fmt.Sprintf("thread %d (%s) wedged at step %d after %s: "+
		"no scheduling point reached within the watchdog interval",
		w.Tid, w.Name, w.Step, w.LastOp)
}

// BlockedInfo describes one thread blocked at a deadlock.
type BlockedInfo struct {
	Tid  tidset.Tid
	Name string
	Op   OpInfo
}

// Step is one recorded transition of an execution trace.
type Step struct {
	Alt   Alt
	Info  OpInfo
	Yield bool // the transition was yielding
	// EnabledAfter is the number of enabled threads after the step
	// (cheap context for trace display and liveness classification).
	EnabledAfter int
}

// ThreadStat summarizes one thread's activity in an execution.
type ThreadStat struct {
	Tid    tidset.Tid
	Name   string
	Steps  int64 // transitions taken
	Yields int64 // yielding transitions among them
	Exited bool
	// Agent marks a scheduler agent (a store-buffer flush owner, see
	// Engine.AddAgent) rather than a program thread. Liveness
	// classification keys on it: agents never yield by design, so the
	// good-samaritan judgment must not apply to them.
	Agent bool
}

// WMCounters aggregates the weak-memory subsystem's per-execution
// telemetry (internal/wm): stores buffered instead of hitting memory,
// flush steps executed, fences completed, and loads served by
// store-to-load forwarding from the issuing thread's own buffer. All
// four are deterministic functions of the schedule.
type WMCounters struct {
	BufferedStores int64
	Flushes        int64
	Fences         int64
	Forwards       int64
}

// Result reports one complete execution. Its slices alias the buffers
// of the engine that ran it. After Run that engine is gone and the
// Result is the caller's to keep; after Pool.Run the engine runs again,
// so the Result is valid until the pool's next Run and Clone makes the
// copy that outlives it.
type Result struct {
	Outcome  Outcome
	Steps    int64
	Schedule []Alt  // the decisions taken, sufficient for replay
	Trace    []Step // full trace if Config.RecordTrace
	// Digests are the per-step conformance digests if
	// Config.RecordDigests; a ReplayChooser given these verifies
	// the program still conforms to the schedule (see conformance.go).
	Digests   []StepDigest
	Violation *ViolationInfo
	Blocked   []BlockedInfo // populated for Deadlock
	// Wedge identifies the stuck thread for outcome Wedged.
	Wedge *WedgeInfo
	// DeadlineExceeded reports that the execution was cut because the
	// wall-clock Config.Deadline passed (outcome Aborted). The searcher
	// drops it like an Interrupted one and stops with Report.TimedOut.
	DeadlineExceeded bool
	// Interrupted reports that the execution was cut because Config.Stop
	// was closed (outcome Aborted). An execution cut either way is not
	// part of the search: the engine leaves it out of Config.Metrics and
	// emits no exec_end for it, the searcher drops it and stops, resumably
	// — so no kept Result has either set, and the serialized form of one
	// is unchanged.
	Interrupted bool  `json:",omitempty"`
	Threads     int   // threads created
	Yields      int64 // yielding transitions taken
	// Priority-graph churn under the fair scheduler (zero without it):
	// EdgeAdds counts insertions by P := P ∪ {t}×H at yield-window
	// boundaries, EdgeErases removals by line 13's P := P \ (Tid × {t}),
	// and FairBlocked the (step, thread) pairs where an enabled thread
	// was excluded from scheduling by a priority edge. All three are
	// deterministic functions of the schedule.
	EdgeAdds    int64
	EdgeErases  int64
	FairBlocked int64
	// WM is the weak-memory telemetry (all zero under SC with no
	// explicit wm.Memory use).
	WM WMCounters
	// PerThread breaks Steps/Yields down by thread, in id order. The
	// good-samaritan discipline is visible here: a thread with many
	// steps and no yields in a diverging execution is the §4.3.1 bug.
	PerThread []ThreadStat
}

// Clone returns a copy of r that shares no slice with it (nor with the
// pooled engine r came from). Violation and Wedge are made per
// execution and never rewritten, so the copy shares them.
func (r *Result) Clone() *Result {
	c := *r
	c.Schedule = append([]Alt(nil), r.Schedule...)
	c.Trace = append([]Step(nil), r.Trace...)
	c.Digests = append([]StepDigest(nil), r.Digests...)
	c.PerThread = append([]ThreadStat(nil), r.PerThread...)
	c.Blocked = append([]BlockedInfo(nil), r.Blocked...)
	return &c
}

// FormatTrace renders the recorded trace (or, without trace recording,
// just the schedule) for human consumption.
func (r *Result) FormatTrace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "outcome: %s after %d steps, %d threads\n", r.Outcome, r.Steps, r.Threads)
	if r.Violation != nil {
		fmt.Fprintf(&b, "violation: %s\n", r.Violation)
	}
	if r.Wedge != nil {
		fmt.Fprintf(&b, "wedge: %s\n", r.Wedge)
	}
	for i, bl := range r.Blocked {
		fmt.Fprintf(&b, "blocked[%d]: thread %d (%s) at %s\n", i, bl.Tid, bl.Name, bl.Op)
	}
	if len(r.Trace) > 0 {
		for i, s := range r.Trace {
			y := ""
			if s.Yield {
				y = " [yield]"
			}
			fmt.Fprintf(&b, "%5d: %s %s%s\n", i, s.Alt, s.Info, y)
		}
	} else {
		fmt.Fprintf(&b, "schedule: %v\n", r.Schedule)
	}
	return b.String()
}

// FormatColumns renders the recorded trace as one column per thread —
// the layout concurrency bugs are easiest to read in. Requires a
// recorded trace; falls back to FormatTrace otherwise. width is the
// column width (0 = 14).
func (r *Result) FormatColumns(width int) string {
	if len(r.Trace) == 0 {
		return r.FormatTrace()
	}
	if width <= 0 {
		width = 14
	}
	var b strings.Builder
	fmt.Fprintf(&b, "outcome: %s after %d steps\n", r.Outcome, r.Steps)
	// Header: thread names.
	fmt.Fprintf(&b, "%5s ", "")
	for _, ts := range r.PerThread {
		fmt.Fprintf(&b, "| %-*s", width, clip(fmt.Sprintf("%d:%s", ts.Tid, ts.Name), width))
	}
	b.WriteByte('\n')
	for i, s := range r.Trace {
		fmt.Fprintf(&b, "%5d ", i)
		for _, ts := range r.PerThread {
			cell := ""
			if ts.Tid == s.Alt.Tid {
				cell = s.Info.String()
				if s.Yield {
					cell += "*"
				}
			}
			fmt.Fprintf(&b, "| %-*s", width, clip(cell, width))
		}
		b.WriteByte('\n')
	}
	if r.Violation != nil {
		fmt.Fprintf(&b, "violation: %s\n", r.Violation)
	}
	return b.String()
}

func clip(s string, w int) string {
	if len(s) <= w {
		return s
	}
	if w <= 1 {
		return s[:w]
	}
	return s[:w-1] + "…"
}
