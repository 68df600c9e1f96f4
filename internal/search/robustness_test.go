package search_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/search"
	"fairmc/internal/syncmodel"
)

// wedger spawns a thread that blocks on a raw Go channel — outside the
// conc API, invisible to the scheduler — so every execution wedges
// once the watchdog fires.
func wedger(t *engine.T) {
	x := syncmodel.NewIntVar(t, "x", 0)
	block := make(chan struct{})
	h := t.Go("stuck", func(t *engine.T) {
		x.Store(t, 1)
		<-block // escapes the checker: no scheduling point ever again
	})
	h.Join(t)
}

// normalizeFaults additionally strips the fault bookkeeping, for
// comparing a fault-injected report against a clean baseline.
func normalizeFaults(r *search.Report) *search.Report {
	c := *normalize(r)
	c.WorkerFailures = nil
	return &c
}

// TestSearchWatchdogWedge: a thread stuck outside the conc API ends
// the search with a Wedged finding instead of hanging it forever.
func TestSearchWatchdogWedge(t *testing.T) {
	rep := search.Explore(wedger, search.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     1000,
		Watchdog:     30 * time.Millisecond,
	})
	if rep.Wedges != 1 || rep.FirstWedge == nil {
		t.Fatalf("wedges = %d, FirstWedge = %v; want 1 wedge recorded", rep.Wedges, rep.FirstWedge)
	}
	if rep.FirstWedgeExecution != 1 {
		t.Fatalf("FirstWedgeExecution = %d, want 1", rep.FirstWedgeExecution)
	}
	w := rep.FirstWedge.Wedge
	if w == nil || w.Name != "stuck" {
		t.Fatalf("wedge info = %+v, want thread %q identified", w, "stuck")
	}
	if rep.Exhausted {
		t.Fatal("a wedge-stopped search must not report exhaustion")
	}
}

// TestStrideWorkerPanicRetried: a worker that crashes once on one
// range shard (64 executions at -p 4 plan as two shards of 32) has the
// shard requeued; the final report is identical to the uninjected run,
// with the crash recorded as history.
func TestStrideWorkerPanicRetried(t *testing.T) {
	opts := search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          64,
		MaxSteps:               1000,
		Seed:                   3,
		Parallelism:            4,
		ContinueAfterViolation: true,
	}
	baseline := search.Explore(racyIncrement, opts)

	var fired atomic.Bool
	search.SetWorkerFaultHook(func(mode string, unit int64) {
		if mode == "stride" && unit == 1 && fired.CompareAndSwap(false, true) {
			panic("injected stride fault")
		}
	})
	defer search.SetWorkerFaultHook(nil)
	injected := search.Explore(racyIncrement, opts)

	if !reflect.DeepEqual(normalizeFaults(baseline), normalizeFaults(injected)) {
		t.Fatalf("injected run differs from baseline:\n%+v\nvs\n%+v", baseline, injected)
	}
	if len(injected.WorkerFailures) != 1 {
		t.Fatalf("worker failures = %+v, want exactly one", injected.WorkerFailures)
	}
	wf := injected.WorkerFailures[0]
	if wf.Mode != "stride" || wf.Unit != 1 || wf.Attempt != 1 || wf.Panic != "injected stride fault" {
		t.Fatalf("failure record = %+v", wf)
	}
	if wf.Stack == "" {
		t.Fatal("failure record is missing the goroutine stack")
	}
	if injected.Skipped != 0 {
		t.Fatalf("skipped = %d after a successful retry, want 0", injected.Skipped)
	}
}

// TestStrideWorkerPanicSkipped: a range shard that crashes on every
// attempt is abandoned after the retry budget — every index of it
// reported as Skipped with both attempts on record, never a hang or a
// silent gap.
func TestStrideWorkerPanicSkipped(t *testing.T) {
	opts := search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          64,
		MaxSteps:               1000,
		Seed:                   3,
		Parallelism:            4,
		ContinueAfterViolation: true,
	}
	search.SetWorkerFaultHook(func(mode string, unit int64) {
		if mode == "stride" && unit == 1 {
			panic("persistent stride fault")
		}
	})
	defer search.SetWorkerFaultHook(nil)
	rep := search.Explore(racyIncrement, opts)

	if rep.Skipped != 32 {
		t.Fatalf("skipped = %d, want 32 (the shard's indices 33..64)", rep.Skipped)
	}
	if rep.Executions != 32 {
		t.Fatalf("executions = %d, want 32 (64 minus the skipped shard)", rep.Executions)
	}
	if len(rep.WorkerFailures) != 2 {
		t.Fatalf("worker failures = %+v, want both attempts", rep.WorkerFailures)
	}
	for i, wf := range rep.WorkerFailures {
		if wf.Unit != 1 || wf.Attempt != i+1 {
			t.Fatalf("failure %d = %+v, want unit 1 attempt %d", i, wf, i+1)
		}
	}
}

// TestPrefixWorkerPanicRetried: a crash while exploring one frontier
// subtree is requeued once; the merged report matches the uninjected
// parallel run.
func TestPrefixWorkerPanicRetried(t *testing.T) {
	opts := search.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     1000,
		Parallelism:  4,
	}
	baseline := search.Explore(fig3, opts)
	if !baseline.Exhausted {
		t.Fatal("baseline did not exhaust; pick a smaller program")
	}

	var fired atomic.Bool
	search.SetWorkerFaultHook(func(mode string, unit int64) {
		if mode == "prefix" && unit == 2 && fired.CompareAndSwap(false, true) {
			panic("injected prefix fault")
		}
	})
	defer search.SetWorkerFaultHook(nil)
	injected := search.Explore(fig3, opts)

	if !reflect.DeepEqual(normalizeFaults(baseline), normalizeFaults(injected)) {
		t.Fatalf("injected run differs from baseline:\n%+v\nvs\n%+v", baseline, injected)
	}
	if len(injected.WorkerFailures) != 1 {
		t.Fatalf("worker failures = %+v, want exactly one", injected.WorkerFailures)
	}
	if wf := injected.WorkerFailures[0]; wf.Mode != "prefix" || wf.Unit != 2 || wf.Attempt != 1 {
		t.Fatalf("failure record = %+v", wf)
	}
}

// TestPrefixWorkerPanicSkipped: a subtree that crashes on both
// attempts is reported as a skipped subtree and the search can no
// longer claim exhaustion — explicit coverage loss, not silent.
func TestPrefixWorkerPanicSkipped(t *testing.T) {
	opts := search.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     1000,
		Parallelism:  4,
	}
	search.SetWorkerFaultHook(func(mode string, unit int64) {
		if mode == "prefix" && unit == 2 {
			panic("persistent prefix fault")
		}
	})
	defer search.SetWorkerFaultHook(nil)
	rep := search.Explore(fig3, opts)

	if rep.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", rep.Skipped)
	}
	if rep.Exhausted {
		t.Fatal("a search with a skipped subtree must not report exhaustion")
	}
	if len(rep.WorkerFailures) != 2 {
		t.Fatalf("worker failures = %+v, want both attempts", rep.WorkerFailures)
	}
}

// TestWedgePlusWorkerPanicTerminates is the robustness acceptance
// scenario: one wedged thread and one injected worker crash in the
// same parallel search — it still terminates and reports both.
func TestWedgePlusWorkerPanicTerminates(t *testing.T) {
	var fired atomic.Bool
	search.SetWorkerFaultHook(func(mode string, unit int64) {
		if mode == "stride" && unit == 0 && fired.CompareAndSwap(false, true) {
			panic("injected worker crash")
		}
	})
	defer search.SetWorkerFaultHook(nil)
	rep := search.Explore(wedger, search.Options{
		Fair:          true,
		RandomWalk:    true,
		MaxExecutions: 4,
		MaxSteps:      1000,
		Seed:          1,
		Parallelism:   2,
		Watchdog:      20 * time.Millisecond,
	})
	if rep.FirstWedge == nil || rep.FirstWedgeExecution != 1 {
		t.Fatalf("wedge not reported: %+v", rep)
	}
	if len(rep.WorkerFailures) != 1 || rep.WorkerFailures[0].Unit != 0 {
		t.Fatalf("worker crash not reported: %+v", rep.WorkerFailures)
	}
	// Give the leaked wedged goroutines their store/park attempts so
	// they self-destruct before any later engine runs.
	time.Sleep(50 * time.Millisecond)
}

// roundTrip runs opts to completion as a baseline, then reruns it with
// a small execution budget plus a checkpoint directory, reruns it over
// the directory with the original budget, and requires the stitched
// report to be identical to the baseline.
func roundTrip(t *testing.T, prog func(*engine.T), opts search.Options, splitAt int64) {
	t.Helper()
	baseline := search.Explore(prog, opts)

	path := t.TempDir()
	first := opts
	first.MaxExecutions = splitAt
	first.CheckpointPath = path
	rep1 := search.Explore(prog, first)
	if !rep1.ExecBounded {
		t.Fatalf("first phase did not stop on the execution budget: %+v", rep1)
	}
	if rep1.CheckpointError != "" {
		t.Fatalf("checkpoint write failed: %s", rep1.CheckpointError)
	}

	second := opts
	second.CheckpointPath = path
	rep2 := search.Explore(prog, second)

	if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v",
			baseline, rep2)
	}
	if rep2.Elapsed < rep1.Elapsed {
		t.Fatalf("resumed Elapsed %v did not accumulate the checkpointed %v",
			rep2.Elapsed, rep1.Elapsed)
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	random := search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          200,
		MaxSteps:               1000,
		Seed:                   7,
		ContinueAfterViolation: true,
		ProgramName:            "racy-increment",
	}
	systematic := search.Options{
		Fair:         true,
		ContextBound: -1,
		MaxSteps:     1000,
		ProgramName:  "fig3",
	}
	t.Run("seq-random", func(t *testing.T) {
		roundTrip(t, racyIncrement, random, 80)
	})
	t.Run("stride-p4", func(t *testing.T) {
		opts := random
		opts.Parallelism = 4
		roundTrip(t, racyIncrement, opts, 64)
	})
	t.Run("seq-dfs", func(t *testing.T) {
		roundTrip(t, fig3, systematic, 20)
	})
	t.Run("prefix-p4", func(t *testing.T) {
		opts := systematic
		opts.Parallelism = 4
		roundTrip(t, fig3, opts, 40)
	})
}

// TestFrameArenaCheckpointResume: the DFS stack lives in two arenas that
// backtracking truncates. A checkpointed search at -p 1 is one shard
// whose rest, when the budget cuts it, is the stack as a prefix with the
// alternatives each step has left, so a rerun rebuilds the arenas from
// that prefix. The fixture's executions run past memoDepthCap (4096), where
// frames keep their alternatives but no memo, and one thread's Choose
// makes a frame wider than its neighbours'; the report must still be the
// sequential search's. (The deep, wide stack under the cap is the
// ticketlock fixture of TestFastPathCheckpointResume.)
func TestFrameArenaCheckpointResume(t *testing.T) {
	deep := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		h := t.Go("late", func(t *engine.T) { x.Store(t, int64(t.Choose(3))) })
		for i := 0; i < 4200; i++ {
			x.Add(t, 1)
		}
		h.Join(t)
	}
	roundTrip(t, deep, search.Options{ContextBound: -1, MaxSteps: 10000,
		MaxExecutions: 40, ProgramName: "deep"}, 17)
}

// TestStopCutsRunningExecution: Options.Stop reaches into a running
// execution (engine.Config.Stop). The cut execution is dropped whole,
// frames included, so the checkpoint is the one a poll before the
// execution would have written and the resumed search finishes exactly
// like an uninterrupted one — whether the cut execution was the first,
// with every frame on the stack its own, or a later one replaying a
// long prefix. The program closes Stop itself, a third of the way into
// the chosen one of its 300-step executions (a side effect the
// scheduler does not see and the schedule does not depend on).
func TestStopCutsRunningExecution(t *testing.T) {
	cutRunningExecution(t, func(opts *search.Options) func() {
		stop := make(chan struct{})
		opts.Stop = stop
		return func() { close(stop) }
	}, func(rep *search.Report) bool { return rep.Interrupted && !rep.TimedOut })
}

// TestDeadlineCutsRunningExecution: a TimeLimit that runs out inside an
// execution (engine.Config.Deadline, polled on the tick Stop is) drops
// the cut execution exactly like Stop does, so a timed-out search
// resumed reports the executions of an uninterrupted one, not one more
// per cut. The program outlasts the limit itself, by sleeping for all
// of it inside the chosen execution; the ones before it are a few
// hundred steps each.
func TestDeadlineCutsRunningExecution(t *testing.T) {
	const limit = 500 * time.Millisecond
	cutRunningExecution(t, func(opts *search.Options) func() {
		opts.TimeLimit = limit
		return func() { time.Sleep(limit) }
	}, func(rep *search.Report) bool { return rep.TimedOut && !rep.Interrupted })
}

// cutRunningExecution runs a DFS that arm makes cuttable — it sets the
// option under test and returns what the program does, a third of the
// way into one execution, to trigger the cut — and checks that the cut
// execution is dropped from the report and from Metrics, that stopped
// recognises the report, and that the search resumed from the final
// checkpoint finishes exactly like an uninterrupted one.
func cutRunningExecution(t *testing.T, arm func(*search.Options) func(), stopped func(*search.Report) bool) {
	// prog(n, trigger) calls trigger in the n-th run that gets a third of
	// the way (the runs that plan the checkpointed search's shards stop a
	// few steps in); n = 0 never does.
	prog := func(n int, trigger func()) func(*engine.T) {
		runs := 0
		return func(t *engine.T) {
			x := syncmodel.NewIntVar(t, "x", 0)
			h := t.Go("other", func(t *engine.T) {
				for i := 0; i < 150; i++ {
					x.Add(t, 1)
				}
			})
			for i := 0; i < 148; i++ {
				if i == 50 {
					if runs++; runs == n {
						trigger()
					}
				}
				x.Add(t, 1)
			}
			h.Join(t)
		}
	}
	opts := search.Options{ContextBound: -1, MaxSteps: 10000, MaxExecutions: 30, ProgramName: "long"}
	baseline := search.Explore(prog(0, nil), opts)
	for _, exec := range []int{1, 12} {
		path := t.TempDir()
		first := opts
		first.CheckpointPath = path
		first.Metrics = obs.NewMetrics()
		rep1 := search.Explore(prog(exec, arm(&first)), first)
		if !stopped(rep1) || rep1.Executions != int64(exec-1) {
			t.Fatalf("cut in execution %d: interrupted %v, timed out %v after %d executions, want the cut execution dropped",
				exec, rep1.Interrupted, rep1.TimedOut, rep1.Executions)
		}
		if got := first.Metrics.Executions.Load(); got != rep1.Executions {
			t.Fatalf("cut in execution %d: Metrics counts %d executions, the report %d", exec, got, rep1.Executions)
		}
		second := opts
		second.CheckpointPath = path
		rep2 := search.Explore(prog(0, nil), second)
		if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
			t.Fatalf("cut in execution %d: resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v",
				exec, baseline, rep2)
		}
	}
}

// TestStopChannelInterrupt: closing Options.Stop interrupts the search
// at an execution boundary, writes a resumable checkpoint, and the
// resumed search finishes exactly like an uninterrupted one.
func TestStopChannelInterrupt(t *testing.T) {
	opts := search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          120,
		MaxSteps:               1000,
		Seed:                   5,
		ContinueAfterViolation: true,
		ProgramName:            "racy-increment",
	}
	baseline := search.Explore(racyIncrement, opts)

	path := t.TempDir()
	stopped := make(chan struct{})
	close(stopped) // interrupt at the very first poll
	first := opts
	first.CheckpointPath = path
	first.Stop = stopped
	rep1 := search.Explore(racyIncrement, first)
	if !rep1.Interrupted {
		t.Fatalf("search with closed Stop did not report Interrupted: %+v", rep1)
	}

	second := opts
	second.CheckpointPath = path
	rep2 := search.Explore(racyIncrement, second)
	if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v",
			baseline, rep2)
	}
}

// TestResumeValidation: a checkpoint directory refuses another search
// than its own, naming the option that differs, and takes its own back
// under any budget; over a finished search a rerun reports the same
// again without running an execution.
func TestResumeValidation(t *testing.T) {
	opts := search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          40,
		MaxSteps:               1000,
		Seed:                   7,
		ContinueAfterViolation: true,
		ProgramName:            "racy-increment",
	}
	path := t.TempDir()
	first := opts
	first.MaxExecutions = 10
	first.CheckpointPath = path
	search.Explore(racyIncrement, first)
	rec, err := search.ReadPlan(path)
	if err != nil || rec == nil {
		t.Fatalf("the checkpoint holds no plan: %v", err)
	}

	reject := func(name, option string, mutate func(o *search.Options)) {
		t.Run(name, func(t *testing.T) {
			bad := opts
			mutate(&bad)
			if err := bad.Matches(rec); err == nil || !strings.Contains(err.Error(), option+" is") {
				t.Fatalf("%s rerun: %v; want a refusal naming %s", name, err, option)
			}
		})
	}
	reject("program", "program", func(o *search.Options) { o.ProgramName = "other" })
	reject("seed", "seed", func(o *search.Options) { o.Seed = 99 })
	reject("strategy", "pct", func(o *search.Options) { o.RandomWalk = false; o.PCT = true })
	reject("parallelism", "parallelism", func(o *search.Options) { o.Parallelism = 4 })
	reject("semantic-option", "continueAfterViolation", func(o *search.Options) { o.ContinueAfterViolation = false })

	good := opts
	if err := good.Matches(rec); err != nil {
		t.Fatalf("matching rerun refused: %v", err)
	}
	// Budgets may change from run to run.
	good.MaxExecutions = 10_000
	good.TimeLimit = time.Hour
	if err := good.Matches(rec); err != nil {
		t.Fatalf("rerun with larger budget refused: %v", err)
	}

	// A finished search (exhausted, or stopped on a finding) reruns to
	// its report without an execution: the fold merges every record.
	doneOpts := search.Options{
		Fair:           true,
		ContextBound:   -1,
		MaxSteps:       1000,
		ProgramName:    "fig3",
		CheckpointPath: t.TempDir(),
	}
	rep := search.Explore(fig3, doneOpts)
	if !rep.Exhausted {
		t.Fatal("fig3 search did not exhaust")
	}
	doneOpts.Metrics = obs.NewMetrics()
	if again := search.Explore(fig3, doneOpts); !reflect.DeepEqual(normalize(rep), normalize(again)) {
		t.Fatalf("a finished search rerun reports otherwise:\n%+v\nvs\n%+v", rep, again)
	}
	if n := doneOpts.Metrics.Executions.Load(); n != 0 {
		t.Fatalf("a finished search rerun ran %d executions", n)
	}
}
