// Benchmarks regenerating each table and figure of the paper's
// evaluation (§4), plus micro-benchmarks of the checker itself.
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark runs a scaled-down configuration of the
// corresponding experiment and reports its domain metrics
// (states, executions, executions-to-bug) via b.ReportMetric, so a
// run both times the reproduction and re-derives the paper's shapes.
// cmd/experiments runs the full-size versions.
package fairmc_test

import (
	"fmt"
	"testing"
	"time"

	"fairmc"
	"fairmc/conc"
	"fairmc/internal/experiments"
	"fairmc/internal/liveness"
	"fairmc/internal/search"
	"fairmc/internal/state"
	"fairmc/progs"
)

// BenchmarkFig2NonterminatingExecutions regenerates Figure 2's
// measurement: the nonterminating executions explored by an unfair
// depth-bounded search of the Figure 1 program grow exponentially with
// the depth bound. The reported metric is the growth factor across
// the sweep.
func BenchmarkFig2NonterminatingExecutions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2([]int{8, 12, 16}, experiments.Budget{
			CellTime: 30 * time.Second,
		})
		last := rows[len(rows)-1].NonTerminating
		first := rows[0].NonTerminating
		if first > 0 {
			b.ReportMetric(float64(last)/float64(first), "growth")
		}
		b.ReportMetric(float64(last), "nonterm@16")
	}
}

// BenchmarkTable1Characteristics regenerates Table 1: one fair
// execution of every input program, reporting the largest program's
// scale.
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		for _, r := range rows {
			if r.Name == "Singularity kernel" {
				b.ReportMetric(float64(r.SyncOps), "singularity-syncops")
				b.ReportMetric(float64(r.Threads), "singularity-threads")
			}
		}
	}
}

// BenchmarkTable2StateCoverage regenerates one cell of Table 2
// (dining philosophers 2, cb=2): stateful reference count, fair
// stateless coverage, and the 100%-coverage check.
func BenchmarkTable2StateCoverage(b *testing.B) {
	body := progs.Philosophers(2)
	for i := 0; i < b.N; i++ {
		ref := state.NewCoverage()
		search.Explore(body, search.Options{
			Fair: false, ContextBound: 2, MaxSteps: 1 << 16,
			StatefulPrune: true, Monitor: ref,
		})
		cov := state.NewCoverage()
		rep := search.Explore(body, search.Options{
			Fair: true, ContextBound: 2, MaxSteps: 1 << 16, Monitor: cov,
		})
		if len(cov.Missing(ref)) != 0 {
			b.Fatal("fair search missed states")
		}
		b.ReportMetric(float64(ref.Count()), "total-states")
		b.ReportMetric(float64(cov.Count()), "fair-states")
		b.ReportMetric(float64(rep.Executions), "fair-executions")
	}
}

// BenchmarkFig5PhilosophersSearchTime regenerates a Figure 5 point:
// wall-clock to complete the fair cb=1 search of the dining
// philosophers (3), against the unfair db=20 search (the paper's
// fastest unfair configuration).
func BenchmarkFig5PhilosophersSearchTime(b *testing.B) {
	body := progs.Philosophers(3)
	for i := 0; i < b.N; i++ {
		fair := search.Explore(body, search.Options{
			Fair: true, ContextBound: 1, MaxSteps: 1 << 16,
			TimeLimit: 60 * time.Second,
		})
		unfair := search.Explore(body, search.Options{
			Fair: false, ContextBound: 1, DepthBound: 20, RandomTail: true,
			MaxSteps: 20 * 64, Seed: 20, TimeLimit: 60 * time.Second,
		})
		b.ReportMetric(fair.Elapsed.Seconds(), "fair-s")
		b.ReportMetric(unfair.Elapsed.Seconds(), "unfair-db20-s")
		b.ReportMetric(float64(fair.Executions), "fair-executions")
		b.ReportMetric(float64(unfair.Executions), "unfair-executions")
	}
}

// BenchmarkFig6WSQSearchTime regenerates a Figure 6 point: the same
// comparison on the work-stealing queue with 2 stealers.
func BenchmarkFig6WSQSearchTime(b *testing.B) {
	body := progs.WorkStealingQueue(progs.WSQConfig{Items: 2, Stealers: 2})
	for i := 0; i < b.N; i++ {
		fair := search.Explore(body, search.Options{
			Fair: true, ContextBound: 1, MaxSteps: 1 << 16,
			TimeLimit: 120 * time.Second,
		})
		unfair := search.Explore(body, search.Options{
			Fair: false, ContextBound: 1, DepthBound: 30, RandomTail: true,
			MaxSteps: 30 * 64, Seed: 30, TimeLimit: 120 * time.Second,
		})
		b.ReportMetric(fair.Elapsed.Seconds(), "fair-s")
		b.ReportMetric(unfair.Elapsed.Seconds(), "unfair-db30-s")
	}
}

// BenchmarkTable3BugFinding regenerates one Table 3 row: executions to
// the first detection of the lock-free-steal WSQ bug, fair vs unfair.
func BenchmarkTable3BugFinding(b *testing.B) {
	rows := []string{"wsq-bug2-lockfree-steal"}
	for i := 0; i < b.N; i++ {
		out := experiments.Table3(rows, experiments.Budget{
			CellTime: 120 * time.Second,
		})
		r := out[0]
		if !r.FairFound {
			b.Fatal("fair search did not find the bug")
		}
		b.ReportMetric(float64(r.FairExecutions), "fair-execs-to-bug")
		if r.UnfairFound {
			b.ReportMetric(float64(r.UnfairExecutions), "unfair-execs-to-bug")
		} else {
			b.ReportMetric(-1, "unfair-execs-to-bug")
		}
	}
}

// BenchmarkGoodSamaritanDetection regenerates §4.3.1: time to find and
// classify the worker-group shutdown spin.
func BenchmarkGoodSamaritanDetection(b *testing.B) {
	p, _ := progs.Lookup("workergroup-spin")
	for i := 0; i < b.N; i++ {
		rep := search.Explore(p.Body, search.Options{
			Fair: true, ContextBound: -1, MaxSteps: 2000,
			TimeLimit: 120 * time.Second,
		})
		if rep.Divergence == nil {
			b.Fatal("no divergence")
		}
		k := liveness.Classify(rep.Divergence, liveness.Options{}).Kind
		if k != liveness.GoodSamaritanViolation {
			b.Fatalf("classified as %v", k)
		}
		b.ReportMetric(float64(rep.DivergenceExecution), "execs-to-detect")
	}
}

// BenchmarkPromiseLivelockDetection regenerates §4.3.2: time to find
// and classify the Figure 8 stale-read livelock.
func BenchmarkPromiseLivelockDetection(b *testing.B) {
	p, _ := progs.Lookup("promise-livelock")
	for i := 0; i < b.N; i++ {
		rep := search.Explore(p.Body, search.Options{
			Fair: true, ContextBound: -1, MaxSteps: 2000,
			TimeLimit: 120 * time.Second,
		})
		if rep.Divergence == nil {
			b.Fatal("no divergence")
		}
		k := liveness.Classify(rep.Divergence, liveness.Options{}).Kind
		if k != liveness.FairNontermination {
			b.Fatalf("classified as %v", k)
		}
		b.ReportMetric(float64(rep.DivergenceExecution), "execs-to-detect")
	}
}

// BenchmarkEngineExecution measures the raw cost of one complete
// deterministic execution (the unit of stateless model checking).
func BenchmarkEngineExecution(b *testing.B) {
	p, _ := progs.Lookup("spinloop")
	opts := fairmc.Defaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := fairmc.RunOnce(p.Body, opts)
		if r.Outcome != fairmc.Terminated {
			b.Fatal(r.Outcome)
		}
	}
}

// BenchmarkEngineExecutionSingularity measures one execution of the
// largest program (14 threads, thousands of scheduling points).
func BenchmarkEngineExecutionSingularity(b *testing.B) {
	p, _ := progs.Lookup("singularity")
	opts := fairmc.Defaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := fairmc.RunOnce(p.Body, opts)
		if r.Outcome != fairmc.Terminated {
			b.Fatal(r.Outcome)
		}
	}
}

// BenchmarkFairSearchSpinloop measures a complete fair DFS of the
// Figure 3 program (the Figure 4 pruning in action).
func BenchmarkFairSearchSpinloop(b *testing.B) {
	p, _ := progs.Lookup("spinloop")
	for i := 0; i < b.N; i++ {
		rep := search.Explore(p.Body, search.Options{
			Fair: true, ContextBound: -1, MaxSteps: 1 << 16,
		})
		if !rep.Exhausted {
			b.Fatal("not exhausted")
		}
		b.ReportMetric(float64(rep.Executions), "executions")
	}
}

// BenchmarkParallelSpeedup sweeps the worker count over a fixed
// random-walk workload (stride sharding: the explored schedules are
// identical for every P, so the work is constant and only the wall
// clock moves). Reported execs/s is the headline metric; speedup over
// P=1 is execs/s(P)/execs/s(1). Note the sweep is only meaningful on
// a multi-core host — with GOMAXPROCS=1 all P collapse to sequential
// throughput.
func BenchmarkParallelSpeedup(b *testing.B) {
	body := progs.WorkStealingQueue(progs.WSQConfig{Items: 2, Stealers: 2})
	const execs = 200
	for _, p := range []int{1, 2, 4, 8} {
		p := p
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				rep := search.Explore(body, search.Options{
					Fair:                    true,
					RandomWalk:              true,
					MaxExecutions:           execs,
					MaxSteps:                1 << 14,
					Seed:                    42,
					Parallelism:             p,
					ContinueAfterViolation:  true,
					ContinueAfterDivergence: true,
				})
				if rep.Executions != execs {
					b.Fatalf("executions = %d, want %d", rep.Executions, execs)
				}
				total += rep.Elapsed
			}
			b.ReportMetric(float64(execs)*float64(b.N)/total.Seconds(), "execs/s")
		})
	}
}

// BenchmarkAblationFairK measures the cost of weakening the fairness
// updates (§3's k-th-yield parameterization): larger k processes fewer
// window boundaries, prunes unfair cycles later, and explores more
// executions for the same coverage.
func BenchmarkAblationFairK(b *testing.B) {
	p, _ := progs.Lookup("spinloop")
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := search.Explore(p.Body, search.Options{
					Fair:         true,
					FairK:        k,
					ContextBound: -1,
					MaxSteps:     1 << 16,
				})
				if !rep.Exhausted {
					b.Fatal("not exhausted")
				}
				b.ReportMetric(float64(rep.Executions), "executions")
			}
		})
	}
}

// BenchmarkAblationSleepSets measures sleep-set partial-order
// reduction on an unfair exhaustive search: same states, fewer
// executions. The workload must terminate under every schedule (no
// spin loops), since the unfair search cannot prune cycles; three
// writers on disjoint variables maximize independence.
func BenchmarkAblationSleepSets(b *testing.B) {
	prog := func(t *conc.T) {
		vars := make([]*conc.IntVar, 3)
		for i := range vars {
			vars[i] = conc.NewIntVar(t, "v", 0)
		}
		wg := conc.NewWaitGroup(t, "wg", 3)
		for i := 0; i < 3; i++ {
			i := i
			t.Go("w", func(t *conc.T) {
				vars[i].Store(t, 1)
				vars[i].Store(t, 2)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}
	for _, sleep := range []bool{false, true} {
		sleep := sleep
		name := "plain"
		if sleep {
			name = "sleepsets"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cov := state.NewCoverage()
				rep := search.Explore(prog, search.Options{
					Fair:         false,
					ContextBound: -1, // exhaustive: where POR matters
					MaxSteps:     1 << 16,
					SleepSets:    sleep,
					Monitor:      cov,
				})
				if !rep.Exhausted {
					b.Fatal("not exhausted")
				}
				b.ReportMetric(float64(rep.Executions), "executions")
				b.ReportMetric(float64(cov.Count()), "states")
			}
		})
	}
}

// BenchmarkAblationDPOR measures dynamic partial-order reduction (with
// the sleep sets it always carries) on the same independent-writer
// workload as the sleep-set ablation.
func BenchmarkAblationDPOR(b *testing.B) {
	prog := func(t *conc.T) {
		vars := make([]*conc.IntVar, 3)
		for i := range vars {
			vars[i] = conc.NewIntVar(t, "v", 0)
		}
		wg := conc.NewWaitGroup(t, "wg", 3)
		for i := 0; i < 3; i++ {
			i := i
			t.Go("w", func(t *conc.T) {
				vars[i].Store(t, 1)
				vars[i].Store(t, 2)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}
	for _, mode := range []string{"plain", "dpor"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := search.Explore(prog, search.Options{
					Fair:         false,
					ContextBound: -1,
					MaxSteps:     1 << 16,
					DPOR:         mode == "dpor",
				})
				if !rep.Exhausted {
					b.Fatal("not exhausted")
				}
				b.ReportMetric(float64(rep.Executions), "executions")
			}
		})
	}
}

// BenchmarkAblationFingerprint measures the state-capture overhead a
// coverage monitor adds to the fair search.
func BenchmarkAblationFingerprint(b *testing.B) {
	p, _ := progs.Lookup("spinloop")
	run := func(mon fairmc.Options) *search.Report {
		return search.Explore(p.Body, search.Options{
			Fair:         true,
			ContextBound: -1,
			MaxSteps:     1 << 16,
			Monitor:      mon.Monitor,
		})
	}
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep := run(fairmc.Options{}); !rep.Exhausted {
				b.Fatal("not exhausted")
			}
		}
	})
	b.Run("coverage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep := run(fairmc.Options{Monitor: state.NewCoverage()}); !rep.Exhausted {
				b.Fatal("not exhausted")
			}
		}
	})
}
