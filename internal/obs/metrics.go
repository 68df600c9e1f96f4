// Package obs is the observability layer of the checker: a lock-cheap
// metrics registry the engine and searcher update while a check runs,
// a bounded non-blocking event recorder that serializes structured
// scheduling events as JSONL, and the deterministic machine-readable
// run report the CLI emits at the end of a search.
//
// The package deliberately depends on nothing but the standard
// library: the engine and the searcher import obs, never the other way
// around, so events and reports carry plain values (ints, strings)
// rather than engine types.
//
// Two kinds of output with two different contracts:
//
//   - Metrics (this file) are live telemetry. They count work actually
//     performed — including divergence-retry replays, cancelled
//     parallel subtrees, and other work the merged search report
//     discards — so they are NOT deterministic across worker counts.
//     Reading them is always safe from any goroutine.
//   - The run report (report.go) is derived only from the merged
//     search report, which merges in frontier/index order, so it is
//     byte-identical for the same seed at any parallelism and across
//     checkpoint/resume.
//
// See docs/OBSERVABILITY.md for the paper-level meaning of every
// metric.
package obs

import (
	"math/bits"
	"reflect"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use. All methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically updated instantaneous value (e.g. the current
// frontier depth). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations v with bits.Len64(v) == i, i.e. bucket 0 is
// v == 0, bucket i ≥ 1 is v in [2^(i-1), 2^i). 64-bit values need at
// most 65 buckets; execution lengths never exceed 2^40 in practice but
// the full range costs nothing.
const histBuckets = 65

// Hist is a power-of-two bucketed histogram of non-negative int64
// observations. The zero value is ready to use; all methods are safe
// for concurrent use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one observation. Negative values clamp to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Buckets returns a snapshot of the non-empty buckets as (upper bound,
// count) pairs in ascending bound order. The upper bound of bucket i
// is 2^i - 1 (inclusive).
func (h *Hist) Buckets() []HistBucket {
	var out []HistBucket
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		hi := int64(-1) // sentinel for the overflow bucket
		if i < 63 {
			hi = int64(1)<<uint(i) - 1
		}
		out = append(out, HistBucket{Le: hi, Count: n})
	}
	return out
}

// HistBucket is one non-empty histogram bucket: Count observations
// were ≤ Le (Le = -1 marks the open-ended overflow bucket).
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Metrics is the registry of live search telemetry, and this struct is
// the list of metrics: Snapshot, Snapshot.Sub and Merge walk a table
// built from its fields (see fields), so a Counter or Gauge added here
// and, under the same name, to Snapshot is complete. One registry is
// shared by every engine and worker of a check (Options.Metrics);
// updates are atomic, so attaching it to a parallel search is safe.
// The hot path is kept cheap by accumulation: the engine counts
// per-execution in plain locals and flushes once per execution via
// FlushExec.
type Metrics struct {
	// Executions counts engine runs flushed into the registry. This
	// includes divergence-retry replays and parallel work later
	// discarded by the ordered merge, so it can exceed the report's
	// execution count (see the package comment).
	Executions Counter
	// Steps is the total number of scheduled transitions.
	Steps Counter
	// Choices is the total number of scheduling decisions (Chooser
	// calls), and Candidates the total number of alternatives offered
	// across them; Candidates/Choices is the mean branching factor.
	Choices    Counter
	Candidates Counter
	// Yields counts yielding transitions — the good-samaritan events
	// that close fairness windows (Algorithm 1 lines 23–29).
	Yields Counter
	// EdgeAdds counts priority-edge insertions P := P ∪ {t}×H at yield
	// window boundaries; EdgeErases counts removals by Algorithm 1
	// line 13 (P := P \ (Tid × {t})).
	EdgeAdds   Counter
	EdgeErases Counter
	// FairBlocked counts (step, thread) pairs where an enabled thread
	// was excluded from scheduling by a priority edge: the size of
	// pre(P, ES) ∩ ES summed over all steps.
	FairBlocked Counter
	// Outcome counters, one per engine outcome.
	Terminations Counter
	Deadlocks    Counter
	Violations   Counter
	Diverged     Counter
	Aborts       Counter
	// Wedges counts executions cut by the watchdog (outcome Wedged).
	Wedges Counter
	// ReplayDivergences counts prefix replays that stopped conforming
	// to their recorded digests (each retry attempt counts once).
	ReplayDivergences Counter
	// Quarantined counts subtrees abandoned after persistent replay
	// divergence.
	Quarantined Counter
	// WorkerRetries counts recovered parallel-worker crashes (each
	// failed attempt counts once, whether or not the retry succeeded).
	WorkerRetries Counter
	// InlineSteps counts steps the engine fast path granted without a
	// switch (the running thread granted itself the next step);
	// Handoffs counts fast-path steps that changed thread (two coroutine
	// switches, through the hub). Steps - InlineSteps - Handoffs is the
	// remainder: each execution's first grant, and every step when the
	// hub decides them all (engine.Config.NoFastPath).
	InlineSteps Counter
	Handoffs    Counter
	// EngineReuses counts executions that drew a recycled engine from a
	// pool instead of allocating one (engine.Pool).
	EngineReuses Counter
	// Weak-memory counters (internal/wm, -mm=tso): stores buffered
	// instead of written to memory, flush-agent steps draining them,
	// fences completed, and loads served by store-to-load forwarding
	// from the issuing thread's own buffer.
	WMBufferedStores Counter
	WMFlushes        Counter
	WMFences         Counter
	WMForwards       Counter
	// PrefixHits counts replayed scheduling points validated against a
	// memoized candidate snapshot (internal/search prefix memoization);
	// PrefixMisses counts replayed points that fell back to recomputing
	// the conformance digest.
	PrefixHits   Counter
	PrefixMisses Counter
	// Checkpoints counts checkpoints taken (syncs of a checkpoint
	// directory's ledger).
	Checkpoints Counter
	// DistRetries counts retried worker↔coordinator HTTP calls (each
	// re-sent attempt counts once; the first attempt of a call does
	// not).
	DistRetries Counter
	// DistFaultsInjected counts faults the chaos layer injected into
	// the dist transport (drops, delays, duplicates, truncations,
	// resets, partitioned requests — internal/faultinject).
	DistFaultsInjected Counter
	// BreakerOpens counts closed→open transitions of a dist circuit
	// breaker (an unreachable peer tripping fail-fast mode).
	BreakerOpens Counter
	// SpooledResults counts completed shard reports a worker spooled to
	// its -workdir because the coordinator was unreachable; the spool is
	// replayed on rejoin, so each spooled result is work saved, not
	// lost.
	SpooledResults Counter
	// ShedRequests counts requests the coordinator refused with 429 +
	// Retry-After under load (graceful degradation, not failure).
	ShedRequests Counter
	// LedgerAppends counts records appended to the job ledger WAL.
	LedgerAppends Counter
	// LedgerReplayed counts records recovered from the ledger on open.
	LedgerReplayed Counter
	// LedgerTornTails counts partially-written tail records truncated
	// during ledger recovery (the expected residue of a crash mid-append;
	// repair, not data loss).
	LedgerTornTails Counter
	// LedgerQuarantines counts ledger segments sealed aside because a
	// non-tail record failed its CRC (silent corruption; the segment is
	// renamed *.quar and replay continues with later segments).
	LedgerQuarantines Counter
	// FSFaultsInjected counts filesystem faults the chaos layer injected
	// (short writes, torn renames, fsync errors, read corruption —
	// internal/faultinject's FSInjector).
	FSFaultsInjected Counter
	// Job lifecycle counters for the durable checking service
	// (internal/dist/jobs): submissions accepted, jobs reaching a
	// terminal state (done or failed), cancellations, and submissions
	// refused with 429 because the job queue was full.
	JobsSubmitted Counter
	JobsDone      Counter
	JobsCancelled Counter
	JobsShed      Counter
	// DPOR work-unit counters (internal/search/dpor.go): race-reversal
	// proposals found by trace analysis, child units pruned because
	// their path was already spawned or taken, and the instantaneous
	// depth of the unmerged unit queue.
	DporRaces       Counter
	DporUnitsPruned Counter
	DporUnitQueue   Gauge
	// Frontier is how much planned work is open: the DFS stack depth or
	// next execution index of a sequential search, the number of
	// planned-but-unmerged shards of a sharded one (-p N, DPOR, a
	// coordinator).
	Frontier Gauge
	// ExecSteps is the distribution of execution lengths in steps.
	ExecSteps Hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// ExecFlush is the per-execution accumulation the engine hands to
// FlushExec once per engine run, keeping the per-step hot path free of
// atomic operations.
type ExecFlush struct {
	Steps       int64
	Yields      int64
	Choices     int64
	Candidates  int64
	FairBlocked int64
	EdgeAdds    int64
	EdgeErases  int64
	InlineSteps int64
	Handoffs    int64
	// Weak-memory accumulation (engine.WMCounters).
	BufferedStores int64
	Flushes        int64
	Fences         int64
	Forwards       int64
	// Outcome is the engine outcome's string form ("terminated",
	// "deadlock", "violation", "diverged", "aborted", "wedged").
	Outcome string
}

// FlushExec folds one finished execution into the registry.
func (m *Metrics) FlushExec(f ExecFlush) {
	m.Executions.Inc()
	m.Steps.Add(f.Steps)
	m.Yields.Add(f.Yields)
	m.Choices.Add(f.Choices)
	m.Candidates.Add(f.Candidates)
	m.FairBlocked.Add(f.FairBlocked)
	m.EdgeAdds.Add(f.EdgeAdds)
	m.EdgeErases.Add(f.EdgeErases)
	m.InlineSteps.Add(f.InlineSteps)
	m.Handoffs.Add(f.Handoffs)
	m.WMBufferedStores.Add(f.BufferedStores)
	m.WMFlushes.Add(f.Flushes)
	m.WMFences.Add(f.Fences)
	m.WMForwards.Add(f.Forwards)
	m.ExecSteps.Observe(f.Steps)
	switch f.Outcome {
	case "terminated":
		m.Terminations.Inc()
	case "deadlock":
		m.Deadlocks.Inc()
	case "violation":
		m.Violations.Inc()
	case "diverged":
		m.Diverged.Inc()
	case "aborted":
		m.Aborts.Inc()
	case "wedged":
		m.Wedges.Inc()
	}
}

// Snapshot is a point-in-time copy of every metric, suitable for
// progress display or JSON encoding. Field values are read atomically
// but not as one transaction: a snapshot taken while workers run may
// mix values from adjacent executions.
type Snapshot struct {
	Executions         int64        `json:"executions"`
	Steps              int64        `json:"steps"`
	Choices            int64        `json:"choices"`
	Candidates         int64        `json:"candidates"`
	Yields             int64        `json:"yields"`
	EdgeAdds           int64        `json:"edgeAdds"`
	EdgeErases         int64        `json:"edgeErases"`
	FairBlocked        int64        `json:"fairBlocked"`
	Terminations       int64        `json:"terminations"`
	Deadlocks          int64        `json:"deadlocks"`
	Violations         int64        `json:"violations"`
	Diverged           int64        `json:"diverged"`
	Aborts             int64        `json:"aborts"`
	Wedges             int64        `json:"wedges"`
	ReplayDivergences  int64        `json:"replayDivergences"`
	Quarantined        int64        `json:"quarantined"`
	WorkerRetries      int64        `json:"workerRetries"`
	InlineSteps        int64        `json:"inlineSteps"`
	Handoffs           int64        `json:"handoffs"`
	EngineReuses       int64        `json:"engineReuses"`
	WMBufferedStores   int64        `json:"wmBufferedStores"`
	WMFlushes          int64        `json:"wmFlushes"`
	WMFences           int64        `json:"wmFences"`
	WMForwards         int64        `json:"wmForwards"`
	PrefixHits         int64        `json:"prefixHits"`
	PrefixMisses       int64        `json:"prefixMisses"`
	Checkpoints        int64        `json:"checkpoints"`
	DistRetries        int64        `json:"distRetries"`
	DistFaultsInjected int64        `json:"distFaultsInjected"`
	BreakerOpens       int64        `json:"breakerOpens"`
	SpooledResults     int64        `json:"spooledResults"`
	ShedRequests       int64        `json:"shedRequests"`
	LedgerAppends      int64        `json:"ledgerAppends"`
	LedgerReplayed     int64        `json:"ledgerReplayed"`
	LedgerTornTails    int64        `json:"ledgerTornTails"`
	LedgerQuarantines  int64        `json:"ledgerQuarantines"`
	FSFaultsInjected   int64        `json:"fsFaultsInjected"`
	JobsSubmitted      int64        `json:"jobsSubmitted"`
	JobsDone           int64        `json:"jobsDone"`
	JobsCancelled      int64        `json:"jobsCancelled"`
	JobsShed           int64        `json:"jobsShed"`
	DporRaces          int64        `json:"dporRaces"`
	DporUnitsPruned    int64        `json:"dporUnitsPruned"`
	DporUnitQueue      int64        `json:"dporUnitQueue"`
	Frontier           int64        `json:"frontier"`
	ExecSteps          []HistBucket `json:"execSteps,omitempty"`
}

// field pairs one Counter or Gauge of Metrics with the int64 of the same
// name in Snapshot, by field index.
type field struct {
	metric, snap int
	gauge        bool
}

// fields is the registry's one table, built from the two struct
// declarations: every Counter and Gauge of Metrics, in declaration
// order. Snapshot, Sub and Merge walk it; a Counter subtracts and
// merges, a Gauge is a level and is carried by Sub and skipped by Merge
// (per-worker instantaneous values do not sum; the coordinator tracks
// its own). The one Hist, ExecSteps, is handled by name. A metric
// without a Snapshot twin is a bug caught at init.
var fields = func() []field {
	var tab []field
	mt, st := reflect.TypeFor[Metrics](), reflect.TypeFor[Snapshot]()
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		gauge := f.Type == reflect.TypeFor[Gauge]()
		if !gauge && f.Type != reflect.TypeFor[Counter]() {
			continue
		}
		sf, ok := st.FieldByName(f.Name)
		if !ok || sf.Type.Kind() != reflect.Int64 {
			panic("obs: Metrics." + f.Name + " has no int64 field of that name in Snapshot")
		}
		tab = append(tab, field{metric: i, snap: sf.Index[0], gauge: gauge})
	}
	return tab
}()

// Sub returns the counter-wise difference s - prev: the work performed
// between the two snapshots. Distributed workers post these deltas to
// the coordinator so each increment is counted exactly once. A gauge is
// not a counter and carries s's value unchanged; histogram buckets
// subtract bucket-wise.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := s
	dv, pv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(&prev).Elem()
	for _, f := range fields {
		if !f.gauge {
			v := dv.Field(f.snap)
			v.SetInt(v.Int() - pv.Field(f.snap).Int())
		}
	}
	d.ExecSteps = nil
	prevAt := make(map[int64]int64, len(prev.ExecSteps))
	for _, b := range prev.ExecSteps {
		prevAt[b.Le] = b.Count
	}
	for _, b := range s.ExecSteps {
		if n := b.Count - prevAt[b.Le]; n > 0 {
			d.ExecSteps = append(d.ExecSteps, HistBucket{Le: b.Le, Count: n})
		}
	}
	return d
}

// Merge folds a snapshot delta (Snapshot.Sub) into the registry; the
// distributed coordinator aggregates worker telemetry this way. Gauges
// are skipped.
func (m *Metrics) Merge(d Snapshot) {
	mv, dv := reflect.ValueOf(m).Elem(), reflect.ValueOf(&d).Elem()
	for _, f := range fields {
		if !f.gauge {
			mv.Field(f.metric).Addr().Interface().(*Counter).Add(dv.Field(f.snap).Int())
		}
	}
	for _, b := range d.ExecSteps {
		idx := 63 // open-ended overflow bucket
		if b.Le >= 0 {
			idx = bits.Len64(uint64(b.Le)+1) - 1
		}
		m.ExecSteps.buckets[idx].Add(b.Count)
		m.ExecSteps.count.Add(b.Count)
		// Bucket sums are lossy (the histogram stores bounds, not raw
		// values); approximate with the bucket's upper bound.
		if b.Le >= 0 {
			m.ExecSteps.sum.Add(b.Count * b.Le)
		}
	}
}

// Snapshot copies the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{ExecSteps: m.ExecSteps.Buckets()}
	mv, sv := reflect.ValueOf(m).Elem(), reflect.ValueOf(&s).Elem()
	for _, f := range fields {
		v := mv.Field(f.metric).Addr().Interface().(interface{ Load() int64 })
		sv.Field(f.snap).SetInt(v.Load())
	}
	return s
}
