package fairmc_test

import (
	"errors"
	"strings"
	"testing"

	"fairmc"
	"fairmc/conc"
	"fairmc/progs"
)

func TestDefaults(t *testing.T) {
	opts := fairmc.Defaults()
	if !opts.Fair {
		t.Error("Defaults not fair")
	}
	if opts.ContextBound >= 0 {
		t.Error("Defaults bounds preemptions")
	}
	if opts.MaxSteps <= 0 {
		t.Error("Defaults has no divergence bound")
	}
}

func TestCheckCleanProgram(t *testing.T) {
	res := mustCheck(t, func(t *conc.T) {
		x := conc.NewIntVar(t, "x", 0)
		h := t.Go("w", func(t *conc.T) { x.Store(t, 1) })
		h.Join(t)
		t.Assert(x.Load(t) == 1, "join ordering")
	}, fairmc.Defaults())
	if !res.Ok() {
		t.Fatalf("clean program flagged: %+v", res.Report)
	}
	if !res.Exhausted {
		t.Fatalf("not exhausted: %+v", res.Report)
	}
	if res.Liveness != nil {
		t.Fatal("liveness report without divergence")
	}
}

func TestCheckFindsAssertion(t *testing.T) {
	res := mustCheck(t, func(t *conc.T) {
		x := conc.NewIntVar(t, "x", 0)
		t.Go("w", func(t *conc.T) { x.Store(t, 1) })
		t.Assert(x.Load(t) == 0, "racy read")
	}, fairmc.Defaults())
	if res.FirstBug == nil {
		t.Fatal("assertion violation not found")
	}
	if res.Ok() {
		t.Fatal("Ok() true despite bug")
	}
	if res.FirstBug.Outcome != fairmc.Violation {
		t.Fatalf("outcome = %v", res.FirstBug.Outcome)
	}
	// The recorded schedule replays to the same violation.
	replay := mustReplay(t, func(t *conc.T) {
		x := conc.NewIntVar(t, "x", 0)
		t.Go("w", func(t *conc.T) { x.Store(t, 1) })
		t.Assert(x.Load(t) == 0, "racy read")
	}, res.FirstBug.Schedule, fairmc.Defaults())
	if replay.Outcome != fairmc.Violation {
		t.Fatalf("replay outcome = %v", replay.Outcome)
	}
}

func TestCheckClassifiesLivelock(t *testing.T) {
	opts := fairmc.Defaults()
	opts.MaxSteps = 400
	res := mustCheck(t, progs.Promise(progs.PromiseConfig{
		Waiters: 1, Bug: progs.PromiseStaleRead,
	}), opts)
	if res.Divergence == nil || res.Liveness == nil {
		t.Fatalf("no divergence/liveness: %+v", res.Report)
	}
	if res.Liveness.Kind != fairmc.FairNontermination {
		t.Fatalf("kind = %v", res.Liveness.Kind)
	}
}

func TestRunOnceSmoke(t *testing.T) {
	r := fairmc.RunOnce(progs.SpinLoop, fairmc.Defaults())
	if r.Outcome != fairmc.Terminated {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if len(r.Trace) == 0 {
		t.Fatal("RunOnce did not record a trace")
	}
}

func TestChooseExploresAllValues(t *testing.T) {
	seen := map[int]bool{}
	res := mustCheck(t, func(t *conc.T) {
		seen[t.Choose(4)] = true
	}, fairmc.Defaults())
	if !res.Exhausted || len(seen) != 4 {
		t.Fatalf("explored %d values, exhausted=%v", len(seen), res.Exhausted)
	}
}

func TestCheckRacesFindsMissingLock(t *testing.T) {
	res := mustRaces(t, func(t *conc.T) {
		x := conc.NewIntVar(t, "x", 0)
		wg := conc.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			v := int64(i)
			t.Go("w", func(t *conc.T) {
				x.Store(t, v)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}, fairmc.Defaults())
	if len(res.Races) == 0 {
		t.Fatal("no races reported")
	}
	if res.Ok() {
		t.Fatal("Ok() true despite races")
	}
}

func TestCheckRacesCleanOnLockedProgram(t *testing.T) {
	res := mustRaces(t, func(t *conc.T) {
		x := conc.NewIntVar(t, "x", 0)
		m := conc.NewMutex(t, "m")
		wg := conc.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("w", func(t *conc.T) {
				m.Lock(t)
				x.Add(t, 1)
				m.Unlock(t)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}, fairmc.Defaults())
	if !res.Ok() {
		t.Fatalf("locked program flagged: races=%v", res.Races)
	}
}

func TestCheckIterativeFindsMinimalBound(t *testing.T) {
	// The lost-update race needs exactly one preemption: the cb=0
	// iteration is clean and cb=1 finds it.
	racy := func(t *conc.T) {
		x := conc.NewIntVar(t, "x", 0)
		wg := conc.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("inc", func(t *conc.T) {
				v := x.Load(t)
				x.Store(t, v+1)
				wg.Done(t)
			})
		}
		wg.Wait(t)
		t.Assert(x.Load(t) == 2, "lost update")
	}
	reports := mustIterative(t, racy, 5, fairmc.Defaults())
	if len(reports) != 2 {
		t.Fatalf("iterations = %d, want 2 (stop at first finding)", len(reports))
	}
	if reports[0].Bound != 0 || reports[0].FirstBug != nil {
		t.Fatalf("cb=0 iteration wrong: %+v", reports[0])
	}
	if reports[1].Bound != 1 || reports[1].FirstBug == nil {
		t.Fatalf("cb=1 iteration wrong: %+v", reports[1])
	}
}

func TestCheckProperty(t *testing.T) {
	// Token ring: GF(turn=0) and GF(turn=1) hold on the livelock tail;
	// FG(turn=0) does not.
	var turn *conc.IntVar
	ring := func(t *conc.T) {
		turn = conc.NewIntVar(t, "turn", 0)
		for i := 0; i < 2; i++ {
			me := int64(i)
			t.Go("p", func(t *conc.T) {
				for {
					t.Label(1)
					if turn.Load(t) == me {
						turn.Store(t, 1-me)
					}
					t.Yield()
				}
			})
		}
	}
	opts := fairmc.Defaults()
	opts.MaxSteps = 400
	res := mustProperty(t, ring, func() fairmc.Property {
		return fairmc.Property{
			InfinitelyOften: []fairmc.Pred{
				{Name: "turn=0", Eval: func(*fairmc.Engine) bool { return turn.Peek() == 0 }},
				{Name: "turn=1", Eval: func(*fairmc.Engine) bool { return turn.Peek() == 1 }},
			},
			EventuallyAlways: []fairmc.Pred{
				{Name: "turn=0", Eval: func(*fairmc.Engine) bool { return turn.Peek() == 0 }},
			},
		}
	}, 64, opts)
	if res.Divergence == nil || res.Property == nil {
		t.Fatalf("no divergence/property report: %+v", res.Report)
	}
	if len(res.Property.Violations) != 1 {
		t.Fatalf("violations = %v, want just the FG conjunct", res.Property.Violations)
	}
	if res.Property.Violations[0].Temporal != "FG" {
		t.Fatalf("violation = %v", res.Property.Violations[0])
	}
}

func TestCheckPropertyNoDivergence(t *testing.T) {
	res := mustProperty(t, func(t *conc.T) { t.Yield() }, func() fairmc.Property {
		return fairmc.Property{}
	}, 0, fairmc.Defaults())
	if res.Property != nil {
		t.Fatal("property report without divergence")
	}
	if !res.Ok() {
		t.Fatalf("clean program flagged: %+v", res.Report)
	}
}

// The must* helpers unwrap the facade's error return; every option set
// in these tests is statically valid, so an error is a test bug.
func mustCheck(t *testing.T, prog func(*conc.T), opts fairmc.Options) *fairmc.Result {
	t.Helper()
	res, err := fairmc.Check(prog, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func mustRaces(t *testing.T, prog func(*conc.T), opts fairmc.Options) *fairmc.Result {
	t.Helper()
	res, err := fairmc.CheckRaces(prog, opts)
	if err != nil {
		t.Fatalf("CheckRaces: %v", err)
	}
	return res
}

func mustReplay(t *testing.T, prog func(*conc.T), sched []fairmc.Alt, opts fairmc.Options) *fairmc.ExecResult {
	t.Helper()
	r, err := fairmc.Replay(prog, sched, opts)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return r
}

func mustIterative(t *testing.T, prog func(*conc.T), maxBound int, opts fairmc.Options) []fairmc.BoundReport {
	t.Helper()
	reports, err := fairmc.CheckIterative(prog, maxBound, opts)
	if err != nil {
		t.Fatalf("CheckIterative: %v", err)
	}
	return reports
}

func mustProperty(t *testing.T, prog func(*conc.T), build func() fairmc.Property, window int, opts fairmc.Options) *fairmc.PropertyResult {
	t.Helper()
	res, err := fairmc.CheckProperty(prog, build, window, opts)
	if err != nil {
		t.Fatalf("CheckProperty: %v", err)
	}
	return res
}

// TestReplayBadSchedule: replaying a schedule that does not belong to
// the program returns a structured error instead of panicking, for
// both a diverging and a truncated schedule.
func TestReplayBadSchedule(t *testing.T) {
	prog := func(t *conc.T) {
		h := t.Go("w", func(t *conc.T) { t.Yield() })
		h.Join(t)
		t.Assert(false, "always fails")
	}
	res := mustCheck(t, prog, fairmc.Defaults())
	if res.FirstBug == nil {
		t.Fatal("no bug found")
	}
	sched := res.FirstBug.Schedule

	// A schedule step naming a thread that cannot be scheduled.
	_, err := fairmc.Replay(prog, []fairmc.Alt{{Tid: 42, Arg: -1}}, fairmc.Defaults())
	var re *fairmc.DivergenceError
	if !errors.As(err, &re) || !re.NotSchedulable {
		t.Fatalf("diverging replay error = %v, want a not-schedulable *DivergenceError", err)
	}
	if re.Step != 0 {
		t.Fatalf("divergence step = %d, want 0", re.Step)
	}

	// A truncated prefix of a real schedule applies cleanly but ends
	// before the recorded outcome.
	r, err := fairmc.Replay(prog, sched[:len(sched)-1], fairmc.Defaults())
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated replay error = %v, want truncation diagnostic", err)
	}
	if r == nil || r.Outcome != fairmc.Aborted {
		t.Fatalf("truncated replay result = %+v, want the partial Aborted result", r)
	}

	// The full schedule still replays cleanly.
	rr := mustReplay(t, prog, sched, fairmc.Defaults())
	if rr.Outcome != fairmc.Violation {
		t.Fatalf("full replay outcome = %v, want Violation", rr.Outcome)
	}
}

// TestCheckInvalidOptions: the facade surfaces option misuse as an
// error, not a panic.
func TestCheckInvalidOptions(t *testing.T) {
	bad := fairmc.Defaults()
	bad.RandomWalk = true // no budget: never exhausts
	if _, err := fairmc.Check(func(t *conc.T) {}, bad); err == nil {
		t.Fatal("invalid options accepted")
	}
	bad = fairmc.Defaults()
	bad.StatefulPrune = true // unsound with Fair
	if _, err := fairmc.CheckRaces(func(t *conc.T) {}, bad); err == nil {
		t.Fatal("invalid options accepted by CheckRaces")
	}
	if _, err := fairmc.CheckIterative(func(t *conc.T) {}, 1, bad); err == nil {
		t.Fatal("invalid options accepted by CheckIterative")
	}
}
