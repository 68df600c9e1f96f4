package fairmc_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"fairmc"
	"fairmc/conc"
	"fairmc/progs"
)

// The determinism suite pins the fast path's core contract: batching,
// memoization, and pooling are pure speed — the deterministic run
// report is byte-for-byte identical at any parallelism and across a
// checkpoint/resume cycle, where the resumed search starts without
// memo state (the engine-level fast-path on/off axis is
// TestRegistryTraceGolden's). Fixtures
// cover the three scheduler regimes: an exhaustive fair DFS
// (spinloop), a quarantining search over a program that is not a
// deterministic function of its schedule (nondet-counter), and a DPOR
// reduction (where the memoized candidate sets feed sleep-set and
// backtrack bookkeeping).

func checkReport(t *testing.T, prog func(*conc.T), program string, opts fairmc.Options) ([]byte, *fairmc.Result) {
	t.Helper()
	res, err := fairmc.Check(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", program, err)
	}
	return encodeReport(t, res, program, opts), res
}

// nondetRacySeq lives outside the conc API on purpose (like
// progs.NondetCounter's counter): it survives across executions, so
// the value each run stores differs and any replay of a recorded
// prefix containing the store diverges from its digests.
var nondetRacySeq int64

// nondetRacy has a genuine store-store race — so DPOR spawns child
// units that must replay a prefix — over a value that changes every
// run, so those replays quarantine. It terminates without fair
// scheduling (WaitGroup blocks instead of spinning), as DPOR requires.
func nondetRacy(t *conc.T) {
	x := conc.NewIntVar(t, "x", 0)
	n := atomic.AddInt64(&nondetRacySeq, 1)
	wg := conc.NewWaitGroup(t, "wg", 2)
	t.Go("a", func(t *conc.T) {
		x.Store(t, n)
		wg.Done(t)
	})
	t.Go("b", func(t *conc.T) {
		x.Store(t, 1)
		wg.Done(t)
	})
	wg.Wait(t)
}

func lookupBody(t *testing.T, name string) func(*conc.T) {
	t.Helper()
	p, ok := progs.Lookup(name)
	if !ok {
		t.Fatalf("program %q missing", name)
	}
	return p.Body
}

// TestFastPathReportInvariance: the run report does not depend on the
// worker count.
func TestFastPathReportInvariance(t *testing.T) {
	cases := []struct {
		name     string
		prog     func(*conc.T)
		opts     fairmc.Options
		parallel []int
		// crossP additionally requires the report to be identical across
		// parallelism levels. That holds for deterministic programs; a
		// quarantining search legitimately partitions nondeterministic
		// subtrees differently per worker count (sequential quarantine is
		// per-subtree, prefix-parallel quarantine is per-prefix), so for
		// those the suite pins run-to-run identity at each level.
		crossP bool
	}{
		{"spinloop", lookupBody(t, "spinloop"), fairmc.Options{
			Fair:         true,
			ContextBound: -1,
			MaxSteps:     10000,
		}, []int{1, 4}, true},
		{"nondet-counter", lookupBody(t, "nondet-counter"), fairmc.Options{
			Fair:          true,
			ContextBound:  -1,
			MaxSteps:      10000,
			MaxExecutions: 300,
		}, []int{1, 4}, false},
		// TSO turns flush delay into schedulable steps: the digests,
		// schedules, and wm counters those steps produce must be
		// byte-identical across parallelism like any other transition.
		{"litmus-sb-tso", lookupBody(t, "litmus-sb"), fairmc.Options{
			Fair:                   true,
			ContextBound:           -1,
			MaxSteps:               10000,
			MemModel:               "tso",
			ContinueAfterViolation: true,
		}, []int{1, 4}, true},
		// DPOR runs as serializable work units merged in spawn order,
		// so the report is identical at any worker count too. racyConc
		// gives it a real race to reduce around.
		{"dpor-racy", racyConc, fairmc.Options{
			Fair:                   false,
			ContextBound:           -1,
			MaxSteps:               10000,
			DPOR:                   true,
			ContinueAfterViolation: true,
		}, []int{1, 4}, true},
		// DPOR over a program that is not a deterministic function of
		// its schedule: child units replay a recorded prefix, observe a
		// conformance divergence, and quarantine. Each unit's verdict is
		// independent of worker scheduling, so the report stays
		// byte-identical across parallelism levels as well.
		{"dpor-nondet", nondetRacy, fairmc.Options{
			Fair:         false,
			ContextBound: -1,
			MaxSteps:     10000,
			DPOR:         true,
		}, []int{1, 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, p := range tc.parallel {
				if !tc.crossP {
					ref = nil
				}
				for run := 0; run < 2; run++ {
					opts := tc.opts
					opts.Parallelism = p
					data, _ := checkReport(t, tc.prog, tc.name, opts)
					if ref == nil {
						ref = data
						continue
					}
					if !bytes.Equal(ref, data) {
						t.Fatalf("run report differs at p=%d, run %d:\n%s\nvs\n%s", p, run, ref, data)
					}
				}
			}
		})
	}
}

// TestFastPathCheckpointResume: a search interrupted at half its
// executions, checkpointed and resumed, reproduces the uninterrupted
// report exactly — memo state is never persisted (restored frames fall
// back to digest validation).
func TestFastPathCheckpointResume(t *testing.T) {
	fixtures := []struct {
		name string
		prog func(*conc.T)
		opts fairmc.Options
	}{
		{"spinloop", lookupBody(t, "spinloop"), fairmc.Options{
			Fair:         true,
			ContextBound: -1,
			MaxSteps:     10000,
		}},
		{"nondet-counter", lookupBody(t, "nondet-counter"), fairmc.Options{
			Fair:          true,
			ContextBound:  -1,
			MaxSteps:      10000,
			MaxExecutions: 300,
		}},
		// A deep, wide stack: the checkpoint is cut out of the searcher's
		// frame arenas mid-backtrack and the resume rebuilds them.
		{"ticketlock", lookupBody(t, "ticketlock"), fairmc.Options{
			Fair:          true,
			ContextBound:  -1,
			MaxSteps:      10000,
			MaxExecutions: 9000,
		}},
		// TSO searches checkpoint like any other: the options hash folds
		// the memory model in, frontier alternatives include flush
		// steps, and the v5 wm counters ride the counter block.
		{"litmus-sb-tso", lookupBody(t, "litmus-sb"), fairmc.Options{
			Fair:                   true,
			ContextBound:           -1,
			MaxSteps:               10000,
			MemModel:               "tso",
			ContinueAfterViolation: true,
		}},
		// DPOR checkpoints its unit frontier (format v4); a resumed run
		// regenerates the same spawn order and merges identically.
		{"dpor-racy", racyConc, fairmc.Options{
			Fair:                   false,
			ContextBound:           -1,
			MaxSteps:               10000,
			DPOR:                   true,
			ContinueAfterViolation: true,
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			opts := fx.opts
			opts.ProgramName = fx.name
			want, res := checkReport(t, fx.prog, fx.name, opts)
			if res.Executions < 4 {
				t.Fatalf("fixture too small to split: %d executions", res.Executions)
			}

			path := t.TempDir()
			first := opts
			first.MaxExecutions = res.Executions / 2
			first.CheckpointPath = path
			rep1, err := fairmc.Check(fx.prog, first)
			if err != nil {
				t.Fatal(err)
			}
			if !rep1.ExecBounded || rep1.CheckpointError != "" {
				t.Fatalf("first phase did not stop on the execution budget with its checkpoint: %+v", rep1.Report)
			}
			second := opts
			second.CheckpointPath = path
			resumed, err := fairmc.Check(fx.prog, second)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeReport(t, resumed, fx.name, second)
			if !bytes.Equal(want, got) {
				t.Fatalf("resumed run report differs from uninterrupted baseline:\n%s\nvs\n%s",
					want, got)
			}
		})
	}
}
