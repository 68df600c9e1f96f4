package search_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
)

// hiddenCounter builds a program that is deliberately NOT a
// deterministic function of its schedule: the worker's store carries a
// monotonically increasing value that lives outside the conc API, so
// the worker's pending operation differs on every run, from its first
// schedulable step onward. The counter never repeats, so no
// divergence-retry attempt ever swings back into conformance. Each
// call returns an independent program (own counter), keeping tests
// isolated from one another.
func hiddenCounter() func(*engine.T) {
	var seq int64
	return func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		done := syncmodel.NewIntVar(t, "done", 0)
		n := atomic.AddInt64(&seq, 1)
		h := t.Go("worker", func(t *engine.T) {
			x.Store(t, n)
			done.Store(t, 1)
		})
		for done.Load(t) == 0 {
			t.Yield()
		}
		h.Join(t)
	}
}

func nondetOpts() search.Options {
	return search.Options{
		Fair:          true,
		ContextBound:  -1,
		MaxSteps:      2000,
		MaxExecutions: 200,
	}
}

// TestNondeterminismQuarantinedSequential: the sequential DFS detects
// the divergence, retries the default number of times, and quarantines
// the subtree with a populated report — it neither crashes nor keeps
// searching a wrong tree, and never misreports the program as buggy.
func TestNondeterminismQuarantinedSequential(t *testing.T) {
	rep := search.Explore(hiddenCounter(), nondetOpts())
	if rep.Quarantined == 0 {
		t.Fatalf("nondeterminism not quarantined: %+v", rep)
	}
	if int64(len(rep.Nondeterminism)) != rep.Quarantined {
		t.Fatalf("Quarantined = %d but %d reports", rep.Quarantined, len(rep.Nondeterminism))
	}
	for _, nr := range rep.Nondeterminism {
		if nr.Step < 0 || len(nr.Prefix) != nr.Step+1 {
			t.Fatalf("report prefix/step mismatch: %+v", nr)
		}
		if nr.Attempts != 3 { // 1 replay + defaultDivergenceRetries retries
			t.Fatalf("attempts = %d, want 3 (default retries)", nr.Attempts)
		}
		if !nr.NotSchedulable && nr.Expected.Hash == nr.Observed.Hash {
			t.Fatalf("digest-mismatch report with equal hashes: %+v", nr)
		}
	}
	if rep.FirstBug != nil {
		t.Fatalf("nondeterminism misreported as a bug: %+v", rep.FirstBug)
	}
	if rep.Exhausted {
		t.Fatal("a search with quarantined subtrees must not claim exhaustion")
	}
}

// TestNondeterminismRetryBudget: DivergenceRetries controls the number
// of replay attempts before quarantine (negative = none).
func TestNondeterminismRetryBudget(t *testing.T) {
	for _, tc := range []struct {
		retries      int
		wantAttempts int
	}{
		{retries: -1, wantAttempts: 1},
		{retries: 1, wantAttempts: 2},
		{retries: 4, wantAttempts: 5},
	} {
		opts := nondetOpts()
		opts.DivergenceRetries = tc.retries
		rep := search.Explore(hiddenCounter(), opts)
		if rep.Quarantined == 0 {
			t.Fatalf("retries=%d: nothing quarantined", tc.retries)
		}
		for _, nr := range rep.Nondeterminism {
			if nr.Attempts != tc.wantAttempts {
				t.Fatalf("retries=%d: attempts = %d, want %d", tc.retries, nr.Attempts, tc.wantAttempts)
			}
		}
	}
}

// TestNondeterminismQuarantinedParallel: the prefix-sharded parallel
// search applies the same protocol — a diverging prefix is frozen
// during frontier expansion, rediscovered by the worker, and
// quarantined into the merged report; no worker crashes.
func TestNondeterminismQuarantinedParallel(t *testing.T) {
	opts := nondetOpts()
	opts.Parallelism = 4
	rep := search.Explore(hiddenCounter(), opts)
	if rep.Quarantined == 0 {
		t.Fatalf("parallel nondeterminism not quarantined: %+v", rep)
	}
	if int64(len(rep.Nondeterminism)) != rep.Quarantined {
		t.Fatalf("Quarantined = %d but %d reports", rep.Quarantined, len(rep.Nondeterminism))
	}
	if len(rep.WorkerFailures) != 0 {
		t.Fatalf("divergence crashed workers: %+v", rep.WorkerFailures)
	}
	if rep.FirstBug != nil {
		t.Fatalf("nondeterminism misreported as a bug: %+v", rep.FirstBug)
	}
	if rep.Exhausted {
		t.Fatal("a search with quarantined subtrees must not claim exhaustion")
	}
}

// TestConformanceOffByteIdentical: for deterministic programs the
// conformance machinery is pure observation — reports with digests on
// and off are identical (modulo wall-clock), whether the program is
// clean or buggy.
func TestConformanceOffByteIdentical(t *testing.T) {
	clean := search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000}
	buggy := clean
	buggy.ContinueAfterViolation = true
	for _, tc := range []struct {
		name string
		prog func(*engine.T)
		opts search.Options
	}{
		{"fig3", fig3, clean},
		{"racy-increment", racyIncrement, buggy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on := search.Explore(tc.prog, tc.opts)
			off := tc.opts
			off.DisableConformance = true
			offRep := search.Explore(tc.prog, off)
			if !reflect.DeepEqual(normalize(on), normalize(offRep)) {
				t.Fatalf("conformance changed a deterministic search:\n%+v\nvs\n%+v", on, offRep)
			}
		})
	}
}

// TestConfirmationStableBug: a deterministic bug replays on every
// confirmation run and is tagged stable.
func TestConfirmationStableBug(t *testing.T) {
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000, ConfirmRuns: 3}
	rep := search.Explore(racyIncrement, opts)
	if rep.FirstBug == nil {
		t.Fatal("race not found")
	}
	v := rep.BugReproducibility
	if !v.Stable() || v.Runs != 3 || v.Successes != 3 || v.FirstFailure != "" {
		t.Fatalf("verdict = %+v, want stable 3/3", v)
	}
	if v.String() != "stable (3/3)" {
		t.Fatalf("verdict string = %q", v.String())
	}

	// ConfirmRuns = 0 disables the pass entirely.
	opts.ConfirmRuns = 0
	rep = search.Explore(racyIncrement, opts)
	if rep.BugReproducibility != nil {
		t.Fatalf("verdict %+v present with ConfirmRuns = 0", rep.BugReproducibility)
	}
}

// TestConfirmationStableDivergence: divergence findings are confirmed
// by the same pass.
func TestConfirmationStableDivergence(t *testing.T) {
	spinner := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		for x.Load(t) == 0 { // no writer exists: spins forever
			t.Yield()
		}
	}
	rep := search.Explore(spinner, search.Options{
		Fair: true, ContextBound: -1, MaxSteps: 200, ConfirmRuns: 3,
	})
	if rep.Divergence == nil {
		t.Fatalf("no divergence found: %+v", rep)
	}
	if v := rep.DivergenceReproducibility; !v.Stable() {
		t.Fatalf("deterministic divergence tagged %s (%+v)", v, v)
	}
}

// TestConfirmationFlakyBug: a "bug" that depends on hidden
// cross-execution state fails some confirmation replays and is tagged
// flaky instead of being presented as a trustworthy finding.
func TestConfirmationFlakyBug(t *testing.T) {
	var seq int64
	prog := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		n := atomic.AddInt64(&seq, 1)
		t.Assert(n%2 == 0, "odd-run failure") // violates on every odd run
		x.Store(t, 1)
	}
	rep := search.Explore(prog, search.Options{
		Fair: true, ContextBound: -1, MaxSteps: 1000, ConfirmRuns: 4,
	})
	if rep.FirstBug == nil {
		t.Fatal("odd-run violation not found")
	}
	v := rep.BugReproducibility
	if v == nil || v.Stable() {
		t.Fatalf("hidden-state bug tagged %s, want flaky", v)
	}
	if v.Successes == 0 || v.Successes >= v.Runs {
		t.Fatalf("verdict = %+v, want partial reproducibility", v)
	}
	if v.FirstFailure == "" {
		t.Fatal("flaky verdict is missing its first-failure diagnostic")
	}
	if !strings.Contains(v.String(), "flaky") {
		t.Fatalf("verdict string = %q", v.String())
	}
}

// TestCheckpointCarriesQuarantine: quarantine counters and reports
// survive a checkpoint/resume round trip, and the resumed search
// continues accumulating on top of them.
func TestCheckpointCarriesQuarantine(t *testing.T) {
	prog := hiddenCounter()
	opts := nondetOpts()
	opts.ProgramName = "hidden-counter"

	path := t.TempDir()
	first := opts
	first.MaxExecutions = 2
	first.CheckpointPath = path
	rep1 := search.Explore(prog, first)
	if !rep1.ExecBounded {
		t.Fatalf("first phase did not stop on the execution budget: %+v", rep1)
	}
	if rep1.Quarantined == 0 {
		t.Fatalf("first phase quarantined nothing; cannot test carry-over: %+v", rep1)
	}

	// The directory carries them: rerun at the same budget, the search
	// reports them again without running anything.
	if again := search.Explore(prog, first); again.Quarantined != rep1.Quarantined ||
		!reflect.DeepEqual(again.Nondeterminism, rep1.Nondeterminism) {
		t.Fatalf("the checkpoint carries %d quarantines (%d reports), the report %d",
			again.Quarantined, len(again.Nondeterminism), rep1.Quarantined)
	}

	second := opts
	second.CheckpointPath = path
	rep2 := search.Explore(prog, second)
	if rep2.Quarantined < rep1.Quarantined {
		t.Fatalf("resume lost quarantines: %d -> %d", rep1.Quarantined, rep2.Quarantined)
	}
	if int64(len(rep2.Nondeterminism)) != rep2.Quarantined {
		t.Fatalf("resumed Quarantined = %d but %d reports", rep2.Quarantined, len(rep2.Nondeterminism))
	}
	if !reflect.DeepEqual(rep2.Nondeterminism[:len(rep1.Nondeterminism)], rep1.Nondeterminism) {
		t.Fatalf("resumed search rewrote the checkpointed reports:\n%+v\nvs\n%+v",
			rep2.Nondeterminism[:len(rep1.Nondeterminism)], rep1.Nondeterminism)
	}
	if rep2.Exhausted {
		t.Fatal("resumed search with quarantines claims exhaustion")
	}
}

// TestResumeValidationQuarantine: corrupted quarantine bookkeeping and
// semantic conformance-option changes are refused at resume time.
func TestResumeValidationQuarantine(t *testing.T) {
	prog := hiddenCounter()
	opts := nondetOpts()
	opts.ProgramName = "hidden-counter"

	path := t.TempDir()
	first := opts
	first.MaxExecutions = 2
	first.CheckpointPath = path
	if rep := search.Explore(prog, first); rep.Quarantined == 0 {
		t.Fatalf("nothing quarantined; cannot test validation: %+v", rep)
	}
	plan, done := records(t, path)

	good := opts
	if err := good.Matches(plan); err != nil {
		t.Fatalf("matching rerun refused: %v", err)
	}
	// Operational settings may change from run to run.
	good.DivergenceRetries = 5
	good.ConfirmRuns = 1
	if err := good.Matches(plan); err != nil {
		t.Fatalf("rerun with different retry/confirm settings refused: %v", err)
	}

	// Toggling conformance changes what the recorded digests mean: refuse.
	off := opts
	off.DisableConformance = true
	if err := off.Matches(plan); err == nil {
		t.Fatal("rerun with DisableConformance toggled accepted; want refusal")
	}

	// A decision whose counter disagrees with its reports is corrupt.
	done[0].Report.Quarantined++
	if err := search.FoldCheck(opts, plan, done); err == nil {
		t.Fatal("corrupted quarantine counter folded; want refusal")
	}
}
