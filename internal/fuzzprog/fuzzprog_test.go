package fuzzprog_test

import (
	"testing"

	"fairmc/internal/canon"
	"fairmc/internal/engine"
	"fairmc/internal/fuzzprog"
	"fairmc/internal/rng"
	"fairmc/internal/search"
	"fairmc/internal/state"
)

const fuzzSeeds = 25

// TestFairSearchCleanOnGeneratedPrograms: generated programs are
// correct by construction; the exhaustive fair search must find
// nothing and terminate.
func TestFairSearchCleanOnGeneratedPrograms(t *testing.T) {
	for seed := uint64(0); seed < fuzzSeeds; seed++ {
		prog := fuzzprog.Generate(fuzzprog.DefaultConfig(), seed)
		rep := search.Explore(prog, search.Options{
			Fair:          true,
			ContextBound:  1,
			MaxSteps:      1 << 16,
			MaxExecutions: 300000,
		})
		if rep.FirstBug != nil {
			t.Fatalf("seed %d: false finding:\n%s", seed, rep.FirstBug.FormatTrace())
		}
		if rep.Divergence != nil {
			t.Fatalf("seed %d: false divergence after %d steps", seed, rep.Divergence.Steps)
		}
		if !rep.Exhausted && !rep.ExecBounded {
			t.Fatalf("seed %d: search neither exhausted nor bounded: %+v", seed, rep)
		}
	}
}

// TestReplayDeterminismOnGeneratedPrograms: a random execution of a
// generated program replays to an identical trace.
func TestReplayDeterminismOnGeneratedPrograms(t *testing.T) {
	for seed := uint64(0); seed < fuzzSeeds; seed++ {
		prog := fuzzprog.Generate(fuzzprog.DefaultConfig(), seed)
		r := rng.New(rng.Mix(seed, 7))
		random := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
			return ctx.Cands[r.Intn(len(ctx.Cands))], true
		})
		first := engine.Run(prog, random, engine.Config{
			Fair: true, MaxSteps: 4000, RecordTrace: true,
		})
		if first.Outcome != engine.Terminated {
			t.Fatalf("seed %d: random run outcome %v", seed, first.Outcome)
		}
		replay := engine.Run(prog, &engine.ReplayChooser{Schedule: first.Schedule},
			engine.Config{Fair: true, MaxSteps: 4000, RecordTrace: true})
		if replay.Outcome != engine.Terminated || replay.Steps != first.Steps {
			t.Fatalf("seed %d: replay mismatch: %v/%d vs %v/%d",
				seed, replay.Outcome, replay.Steps, first.Outcome, first.Steps)
		}
		for i := range first.Trace {
			if first.Trace[i] != replay.Trace[i] {
				t.Fatalf("seed %d: trace differs at step %d", seed, i)
			}
		}
	}
}

// TestSleepSetsPreserveCoverageOnGeneratedPrograms: on terminating
// generated programs (no spins), the sleep-set DFS visits exactly the
// plain DFS's states in at most as many executions.
func TestSleepSetsPreserveCoverageOnGeneratedPrograms(t *testing.T) {
	cfg := fuzzprog.DefaultConfig()
	cfg.AllowSpin = false // termination under all schedules
	cfg.Threads = 2
	cfg.OpsPerThread = 3
	for seed := uint64(0); seed < fuzzSeeds; seed++ {
		prog := fuzzprog.Generate(cfg, seed)
		run := func(sleep bool) (*search.Report, *state.Coverage) {
			cov := state.NewCoverage()
			rep := search.Explore(prog, search.Options{
				Fair:         false,
				ContextBound: -1,
				MaxSteps:     1 << 16,
				Monitor:      cov,
				SleepSets:    sleep,
			})
			if !rep.Exhausted {
				t.Fatalf("seed %d (sleep=%v): not exhausted: %+v", seed, sleep, rep)
			}
			return rep, cov
		}
		plain, plainCov := run(false)
		slept, sleptCov := run(true)
		if plainCov.Count() != sleptCov.Count() {
			t.Fatalf("seed %d: coverage differs: plain %d, sleep %d",
				seed, plainCov.Count(), sleptCov.Count())
		}
		if slept.Executions > plain.Executions {
			t.Fatalf("seed %d: sleep sets increased executions: %d > %d",
				seed, slept.Executions, plain.Executions)
		}
	}
}

// TestCanonicalNeverExceedsRawOnGeneratedPrograms: canonicalization
// merges states, never splits them.
func TestCanonicalNeverExceedsRawOnGeneratedPrograms(t *testing.T) {
	for seed := uint64(0); seed < fuzzSeeds; seed++ {
		prog := fuzzprog.Generate(fuzzprog.DefaultConfig(), seed)
		raw := state.NewCoverage()
		can := canon.NewCoverage()
		rep := search.Explore(prog, search.Options{
			Fair:          true,
			ContextBound:  1,
			MaxSteps:      1 << 16,
			MaxExecutions: 100000,
			Monitor:       engine.MultiMonitor{raw, can},
		})
		_ = rep
		if can.Count() > raw.Count() {
			t.Fatalf("seed %d: canonical %d > raw %d", seed, can.Count(), raw.Count())
		}
	}
}

// TestContextBoundMonotoneOnGeneratedPrograms: a larger preemption
// budget never reaches fewer states.
func TestContextBoundMonotoneOnGeneratedPrograms(t *testing.T) {
	cfg := fuzzprog.DefaultConfig()
	cfg.AllowSpin = false
	cfg.OpsPerThread = 3
	for seed := uint64(0); seed < 10; seed++ {
		prog := fuzzprog.Generate(cfg, seed)
		counts := make([]int, 3)
		for cb := 0; cb < 3; cb++ {
			cov := state.NewCoverage()
			rep := search.Explore(prog, search.Options{
				Fair:         false,
				ContextBound: cb,
				MaxSteps:     1 << 16,
				Monitor:      cov,
			})
			if !rep.Exhausted {
				t.Fatalf("seed %d cb=%d: not exhausted", seed, cb)
			}
			counts[cb] = cov.Count()
		}
		if counts[1] < counts[0] || counts[2] < counts[1] {
			t.Fatalf("seed %d: non-monotone coverage %v", seed, counts)
		}
	}
}
