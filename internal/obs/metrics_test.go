package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// with -race in CI, the count must be exact.
func TestCounterConcurrent(t *testing.T) {
	const workers, perWorker = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if j%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if got := g.Load(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 8, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	// -5 clamps to 0; sum = 0+1+2+3+8+0.
	if got := h.Sum(); got != 14 {
		t.Fatalf("sum = %d, want 14", got)
	}
	// Buckets: v==0 (le 0, count 2: the 0 and the clamped -5), v==1
	// (le 1), v in [2,4) (le 3, count 2), v in [8,16) (le 15).
	want := []HistBucket{{Le: 0, Count: 2}, {Le: 1, Count: 1}, {Le: 3, Count: 2}, {Le: 15, Count: 1}}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFlushExecOutcomes(t *testing.T) {
	m := NewMetrics()
	outcomes := []string{"terminated", "deadlock", "violation", "diverged", "aborted", "wedged", "terminated"}
	for _, o := range outcomes {
		m.FlushExec(ExecFlush{Steps: 10, Yields: 2, Choices: 9, Candidates: 18,
			FairBlocked: 1, EdgeAdds: 3, EdgeErases: 3, Outcome: o})
	}
	s := m.Snapshot()
	if s.Executions != 7 || s.Steps != 70 || s.Yields != 14 || s.Choices != 63 ||
		s.Candidates != 126 || s.FairBlocked != 7 || s.EdgeAdds != 21 || s.EdgeErases != 21 {
		t.Fatalf("snapshot totals wrong: %+v", s)
	}
	if s.Terminations != 2 || s.Deadlocks != 1 || s.Violations != 1 ||
		s.Diverged != 1 || s.Aborts != 1 || s.Wedges != 1 {
		t.Fatalf("outcome counters wrong: %+v", s)
	}
	if m.ExecSteps.Count() != 7 || m.ExecSteps.Sum() != 70 {
		t.Fatalf("exec-steps histogram wrong: count=%d sum=%d",
			m.ExecSteps.Count(), m.ExecSteps.Sum())
	}
}

// TestFlushExecConcurrent flushes from parallel workers the way a
// parallel search does; totals must be exact under -race.
func TestFlushExecConcurrent(t *testing.T) {
	const workers, perWorker = 4, 2500
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				m.FlushExec(ExecFlush{Steps: 3, Yields: 1, Outcome: "terminated"})
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Executions != workers*perWorker || s.Steps != 3*workers*perWorker ||
		s.Yields != workers*perWorker || s.Terminations != workers*perWorker {
		t.Fatalf("concurrent flush totals wrong: %+v", s)
	}
}

// TestSnapshotSubMergeRoundtrip models the distributed telemetry path:
// a worker's registry advances, the delta since the last heartbeat is
// forwarded, and the coordinator merges it — totals must match a
// single shared registry. Every Counter and Gauge of Metrics is found
// and set by reflection, so a metric added later is covered without
// editing this test.
func TestSnapshotSubMergeRoundtrip(t *testing.T) {
	worker := NewMetrics()
	coord := NewMetrics()
	wv := reflect.ValueOf(worker).Elem()
	prev := worker.Snapshot()
	var last Snapshot
	for round := 0; round < 3; round++ {
		for j := 0; j <= round; j++ {
			worker.FlushExec(ExecFlush{Steps: 5, Yields: 2, Choices: 4,
				FairBlocked: 1, EdgeAdds: 2, EdgeErases: 1, Outcome: "terminated"})
		}
		for i := 0; i < wv.NumField(); i++ {
			switch f := wv.Field(i).Addr().Interface().(type) {
			case *Counter:
				f.Add(int64((i + 1) * (round + 1)))
			case *Gauge:
				f.Set(int64(100*round + i + 1))
			}
		}
		cur := worker.Snapshot()
		last = cur.Sub(prev)
		coord.Merge(last)
		prev = cur
	}
	w, c := reflect.ValueOf(worker.Snapshot()), reflect.ValueOf(coord.Snapshot())
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		switch wv.Field(i).Addr().Interface().(type) {
		case *Counter:
			if got, want := c.FieldByName(name).Int(), w.FieldByName(name).Int(); got != want || want == 0 {
				t.Errorf("counter %s: merged deltas give %d, source registry has %d", name, got, want)
			}
		case *Gauge:
			// A level: Sub carries it, Merge leaves the coordinator's own.
			if got, want := reflect.ValueOf(last).FieldByName(name).Int(), w.FieldByName(name).Int(); got != want || want == 0 {
				t.Errorf("gauge %s: delta carries %d, source registry has %d", name, got, want)
			}
			if got := c.FieldByName(name).Int(); got != 0 {
				t.Errorf("gauge %s: merged into the coordinator as %d, want it skipped", name, got)
			}
		case *Hist:
		default:
			t.Errorf("Metrics.%s is neither Counter, Gauge nor Hist: teach the field table and this test about it", name)
		}
	}
	if got, want := coord.ExecSteps.Count(), worker.ExecSteps.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
}

// TestSnapshotSubDelta: Sub subtracts counters but carries the gauge
// value through (a gauge is a level, not a rate).
func TestSnapshotSubDelta(t *testing.T) {
	m := NewMetrics()
	m.FlushExec(ExecFlush{Steps: 10, Outcome: "terminated"})
	first := m.Snapshot()
	m.FlushExec(ExecFlush{Steps: 7, Outcome: "deadlock"})
	m.Frontier.Set(5)
	second := m.Snapshot()
	d := second.Sub(first)
	if d.Executions != 1 || d.Steps != 7 || d.Deadlocks != 1 || d.Terminations != 0 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if d.Frontier != 5 {
		t.Fatalf("delta frontier = %d, want the level 5", d.Frontier)
	}
}
