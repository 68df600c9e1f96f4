package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"fairmc/internal/search"
	"fairmc/progs"
)

// TestManifestNamesThisProgram holds BENCHMARK.json and the program
// together: the workloads and metrics the manifest promises are exactly
// the ones this program runs and prints, with the same units.
func TestManifestNamesThisProgram(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames())
	}
	var e2e []metricDef
	for _, d := range man.EndToEnd {
		e2e = append(e2e, d.metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", man.PerLayer, perLayer)
	}
}

// TestExpectedIsTheRegistrysAnswer keeps expected.json a transcription
// of the registry's documented answers, not of a run.
func TestExpectedIsTheRegistrysAnswer(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for name, exp := range expected {
		p, ok := progs.Lookup(name)
		if !ok {
			t.Errorf("%s is in expected.json but not registered", name)
			continue
		}
		if p.ExpectBug != exp.ExpectBug {
			t.Errorf("%s: expected.json says %q, the registry %q", name, exp.ExpectBug, p.ExpectBug)
		}
		if (len(exp.Finding) == 0) != (p.ExpectBug == "") {
			t.Errorf("%s: findings %v do not fit ExpectBug %q", name, exp.Finding, p.ExpectBug)
		}
	}
	for _, w := range workloads {
		for _, c := range append([]check{w.check}, w.canaries...) {
			if _, ok := expected[c.program]; !ok {
				t.Errorf("%s: %s has no entry in expected.json", w.name, c.program)
			}
		}
	}
}

// smoke is each workload cut down to a fraction of a second: the same
// strategy, layers and canaries on a smaller program or budget.
func smoke(w *workload) *workload {
	s := *w
	switch w.name {
	case "fair-dfs":
		s.check.program = "spinloop"
	case "dpor-unfair":
		s.check.opts.SleepSets = true
	case "random-p2":
		s.check.opts.MaxExecutions = 100
	case "service-jobs":
		s.jobs = 4
	}
	return &s
}

// TestSmoke runs every workload at reduced size and checks each run is
// correct and prints exactly the metrics of its table. The two-worker
// workloads also run traced: between them they use every probe, and
// their repetitions are long enough for the CPU profile to have samples.
// It is what keeps the benchmark compiling and honest between full
// runs.
func TestSmoke(t *testing.T) {
	t.Cleanup(func() { runtime.GOMAXPROCS(runtime.NumCPU()) })
	sz := sizing{setups: 1, minReps: 2, minPairs: 1, probe: 20 * time.Millisecond}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := w.name+"/untraced", endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			if traced && w.gomaxprocs < 2 {
				continue
			}
			t.Run(name, func(t *testing.T) {
				if runtime.NumCPU() < w.gomaxprocs {
					t.Skipf("needs %d CPUs", w.gomaxprocs)
				}
				res, err := run(smoke(w), 7, sz, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.Attempted == 0 {
					t.Errorf("attempted=%d failures=%v", res.Attempted, res.Failures)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, the table has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("%s: printed %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
					}
				}
				if !traced {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v, an end-to-end metric is never 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestWrongVerdictFails checks the checker of the checker: a verdict
// other than the expected one is reported, for clean and buggy programs
// alike.
func TestWrongVerdictFails(t *testing.T) {
	clean := check{"ticketlock", fairDFS}
	random := check{"dryad-fifo", search.Options{RandomWalk: true}}
	buggy := check{"peterson-bug", fairDFS}
	for _, c := range []struct {
		check check
		exp   expectation
		got   verdict
		ok    bool
	}{
		{clean, expectation{}, verdict{outcomeExhausted, ""}, true},
		{clean, expectation{}, verdict{outcomeExecBounded, ""}, false},
		{clean, expectation{}, verdict{outcomeStopped, "violation"}, false},
		{random, expectation{}, verdict{outcomeExecBounded, ""}, true},
		{random, expectation{}, verdict{outcomeExhausted, ""}, false},
		{buggy, expectation{Finding: []string{"violation"}}, verdict{outcomeStopped, "violation"}, true},
		{buggy, expectation{Finding: []string{"violation"}}, verdict{outcomeExhausted, ""}, false},
		{buggy, expectation{Finding: []string{"violation"}}, verdict{outcomeStopped, "deadlock"}, false},
	} {
		if msg := c.check.wrong(c.exp, c.got); (msg == "") != c.ok {
			t.Errorf("%s with verdict %s: wrong() = %q, want ok=%v", c.check.program, c.got, msg, c.ok)
		}
	}
}
