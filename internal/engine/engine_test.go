package engine_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/syncmodel"
	"fairmc/internal/tidset"
)

func cfg() engine.Config {
	return engine.Config{Fair: true, CheckInvariants: true, RecordTrace: true}
}

// maxTidChooser always schedules the highest-numbered candidate: an
// adversarial policy that starves low-numbered threads whenever the
// scheduler lets it.
type maxTidChooser struct{}

func (maxTidChooser) Choose(ctx *engine.ChooseContext) (engine.Alt, bool) {
	return ctx.Cands[len(ctx.Cands)-1], true
}

// preferChooser schedules the given thread whenever it is a candidate,
// starving everyone else for as long as the scheduler allows.
type preferChooser struct{ tid tidset.Tid }

func (p preferChooser) Choose(ctx *engine.ChooseContext) (engine.Alt, bool) {
	for _, c := range ctx.Cands {
		if c.Tid == p.tid {
			return c, true
		}
	}
	return ctx.Cands[len(ctx.Cands)-1], true
}

func TestEmptyProgramTerminates(t *testing.T) {
	r := engine.Run(func(*engine.T) {}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v, want terminated", r.Outcome)
	}
	if r.Steps != 1 { // the main thread's start transition
		t.Fatalf("steps = %d, want 1", r.Steps)
	}
	if r.Threads != 1 {
		t.Fatalf("threads = %d, want 1", r.Threads)
	}
}

func TestSpawnAndJoin(t *testing.T) {
	var order []string
	r := engine.Run(func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 0)
		h := t.Go("child", func(t *engine.T) {
			v.Store(t, 42)
			order = append(order, "child")
		})
		h.Join(t)
		order = append(order, "main")
		t.Assert(v.Load(t) == 42, "child effect visible after join")
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v: %s", r.Outcome, r.FormatTrace())
	}
	if len(order) != 2 || order[0] != "child" || order[1] != "main" {
		t.Fatalf("order = %v", order)
	}
	if r.Threads != 2 {
		t.Fatalf("threads = %d, want 2", r.Threads)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// Two threads each do a read-modify-write of a shared counter
	// under a lock; the final value must be 2 under every schedule.
	prog := func(t *engine.T) {
		m := syncmodel.NewMutex(t, "m")
		c := syncmodel.NewIntVar(t, "c", 0)
		wg := syncmodel.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("worker", func(t *engine.T) {
				m.Lock(t)
				x := c.Load(t)
				c.Store(t, x+1)
				m.Unlock(t)
				wg.Done(t)
			})
		}
		wg.Wait(t)
		t.Assert(c.Load(t) == 2, "counter must be 2")
	}
	for _, ch := range []engine.Chooser{engine.FirstChooser{}, maxTidChooser{}, engine.RunToCompletionChooser{}} {
		r := engine.Run(prog, ch, cfg())
		if r.Outcome != engine.Terminated {
			t.Fatalf("chooser %T: %s", ch, r.FormatTrace())
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Classic ABBA deadlock, forced by a schedule that alternates the
	// two lockers' first acquisitions.
	prog := func(t *engine.T) {
		a := syncmodel.NewMutex(t, "a")
		b := syncmodel.NewMutex(t, "b")
		t.Go("ab", func(t *engine.T) {
			a.Lock(t)
			b.Lock(t)
			b.Unlock(t)
			a.Unlock(t)
		})
		t.Go("ba", func(t *engine.T) {
			b.Lock(t)
			a.Lock(t)
			a.Unlock(t)
			b.Unlock(t)
		})
	}
	// Alternate between threads 1 and 2 after both exist.
	turn := 0
	ch := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		want := tidset.Tid(1 + turn%2)
		for _, c := range ctx.Cands {
			if c.Tid == want {
				turn++
				return c, true
			}
		}
		return ctx.Cands[0], true
	})
	r := engine.Run(prog, ch, cfg())
	if r.Outcome != engine.Deadlock {
		t.Fatalf("outcome = %v, want deadlock\n%s", r.Outcome, r.FormatTrace())
	}
	if len(r.Blocked) != 2 {
		t.Fatalf("blocked = %v, want 2 threads", r.Blocked)
	}
	for _, b := range r.Blocked {
		if b.Op.Kind != "lock" {
			t.Fatalf("blocked op = %v, want lock", b.Op)
		}
	}
}

func TestAssertionViolation(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 7)
		t.Assert(v.Load(t) == 8, "v should be 8")
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Violation {
		t.Fatalf("outcome = %v, want violation", r.Outcome)
	}
	if r.Violation == nil || r.Violation.IsPanic {
		t.Fatalf("violation = %+v", r.Violation)
	}
	if r.Violation.Tid != 0 {
		t.Fatalf("violation tid = %d", r.Violation.Tid)
	}
}

func TestPanicBecomesViolation(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		t.Yield()
		panic("boom")
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Violation {
		t.Fatalf("outcome = %v, want violation", r.Outcome)
	}
	if r.Violation == nil || !r.Violation.IsPanic || r.Violation.Msg != "boom" {
		t.Fatalf("violation = %+v", r.Violation)
	}
	if r.Violation.Stack == "" {
		t.Fatal("panic stack not captured")
	}
}

func TestDeferRunsDuringViolationUnwind(t *testing.T) {
	// A deferred model operation during violation unwinding must not
	// wedge the engine.
	r := engine.Run(func(t *engine.T) {
		m := syncmodel.NewMutex(t, "m")
		m.Lock(t)
		defer m.Unlock(t)
		t.Failf("deliberate")
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Violation {
		t.Fatalf("outcome = %v, want violation", r.Outcome)
	}
}

// fig3 is the paper's Figure 3 program: thread t sets x to 1 while
// thread u spins (with a yield) until it observes the store. The
// spinner is spawned first (thread id 1) so adversarial choosers can
// target it before t exists.
func fig3(t *engine.T) {
	x := syncmodel.NewIntVar(t, "x", 0)
	hu := t.Go("u", func(t *engine.T) {
		for {
			t.Label(1)
			if x.Load(t) == 1 {
				break
			}
			t.Yield()
		}
	})
	ht := t.Go("t", func(t *engine.T) {
		x.Store(t, 1)
	})
	ht.Join(t)
	hu.Join(t)
}

func TestFairSchedulerTerminatesFig3(t *testing.T) {
	// Under an adversarial chooser that always prefers the spinner,
	// the fair scheduler must still force the other threads to run
	// (Figure 4's emulation) and the program must terminate.
	c := cfg()
	c.MaxSteps = 10000
	r := engine.Run(fig3, preferChooser{tid: 1}, c)
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v, want terminated\n%s", r.Outcome, r.FormatTrace())
	}
	if r.Steps > 60 {
		t.Fatalf("fair run took %d steps; unfair cycles not pruned?", r.Steps)
	}
}

func TestUnfairSchedulerDivergesFig3(t *testing.T) {
	// The same adversarial chooser without fairness spins forever and
	// hits the step bound: exactly the problem the paper solves.
	c := engine.Config{Fair: false, MaxSteps: 500, RecordTrace: false}
	r := engine.Run(fig3, preferChooser{tid: 1}, c)
	if r.Outcome != engine.Diverged {
		t.Fatalf("outcome = %v, want diverged", r.Outcome)
	}
	if r.Steps != 500 {
		t.Fatalf("steps = %d, want 500", r.Steps)
	}
}

func TestChoose(t *testing.T) {
	var seen int
	ch := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		// Pick the alternative with the largest Arg at choice points.
		best := ctx.Cands[0]
		for _, c := range ctx.Cands {
			if c.Arg > best.Arg {
				best = c
			}
		}
		return best, true
	})
	r := engine.Run(func(t *engine.T) {
		seen = t.Choose(5)
	}, ch, cfg())
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if seen != 4 {
		t.Fatalf("Choose returned %d, want 4", seen)
	}
}

func TestChooseArityValidation(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		t.Choose(0)
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Violation {
		t.Fatalf("outcome = %v, want violation for Choose(0)", r.Outcome)
	}
}

// TestInvalidAlternativePanics: an answer that is not among the
// candidates panics naming them, whichever part of it is wrong — a
// thread that cannot run, a choice on an op that has none, none on one
// that has, a choice past the arity.
func TestInvalidAlternativePanics(t *testing.T) {
	for _, c := range []struct {
		step int
		alt  engine.Alt
		want string
	}{
		{0, engine.Alt{Tid: 1, Arg: -1}, "t1 not in [t0]"},
		{0, engine.Alt{Tid: -1, Arg: -1}, "t-1 not in [t0]"},
		{0, engine.Alt{Tid: 0, Arg: 0}, "t0:0 not in [t0]"},
		{1, engine.Alt{Tid: 0, Arg: -1}, "t0 not in [t0:0 t0:1 t0:2]"},
		{1, engine.Alt{Tid: 0, Arg: 3}, "t0:3 not in [t0:0 t0:1 t0:2]"},
	} {
		func() {
			want := "engine: chooser returned invalid alternative: " + c.want
			defer func() {
				if p := recover(); p != want {
					t.Errorf("%v at step %d: recovered %v, want %q", c.alt, c.step, p, want)
				}
			}()
			engine.Run(func(t *engine.T) { t.Choose(3) }, engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
				if ctx.Step == c.step {
					return c.alt, true
				}
				return ctx.Cands[0], true
			}), cfg())
		}()
	}
}

// TestGuardedOpsAskedEveryStep: a ring of guarded ops whose guards flip
// with no object touched — each Execute passes a token the next op's
// Enabled reads — runs its rounds in ring order to termination, with
// the enabled set checked against a recount at every step. An engine
// that asked a guarded op only when a step touched its object would
// never see the token move.
func TestGuardedOpsAskedEveryStep(t *testing.T) {
	const n, rounds = 5, 7
	p := ring(n, rounds)
	for _, fair := range []bool{false, true} {
		c := cfg()
		c.Fair = fair
		r := engine.Run(p.body, randomWalk(3), c)
		if r.Outcome != engine.Terminated {
			t.Fatalf("fair %v: outcome %v, want terminated", fair, r.Outcome)
		}
		next := 0
		for _, s := range r.Trace {
			if s.Info.Kind != "ring" {
				continue
			}
			if int(s.Alt.Tid) != next%n {
				t.Fatalf("fair %v: ring step %d ran thread %d, want the token holder %d", fair, next, s.Alt.Tid, next%n)
			}
			next++
		}
		if next != n*rounds {
			t.Fatalf("fair %v: %d ring steps, want %d", fair, next, n*rounds)
		}
	}
}

func TestReplayDeterminism(t *testing.T) {
	prog := func(t *engine.T) {
		m := syncmodel.NewMutex(t, "m")
		c := syncmodel.NewIntVar(t, "c", 0)
		for i := 0; i < 3; i++ {
			t.Go("w", func(t *engine.T) {
				if m.TryLock(t) {
					c.Add(t, 1)
					m.Unlock(t)
				} else {
					t.Yield()
				}
			})
		}
	}
	first := engine.Run(prog, maxTidChooser{}, cfg())
	if first.Outcome != engine.Terminated {
		t.Fatalf("first run: %v", first.Outcome)
	}
	replay := engine.Run(prog, &engine.ReplayChooser{
		Schedule: first.Schedule,
	}, cfg())
	if replay.Outcome != engine.Terminated {
		t.Fatalf("replay run: %v", replay.Outcome)
	}
	if replay.Steps != first.Steps {
		t.Fatalf("replay steps = %d, want %d", replay.Steps, first.Steps)
	}
	if len(replay.Trace) != len(first.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(replay.Trace), len(first.Trace))
	}
	for i := range replay.Trace {
		if replay.Trace[i] != first.Trace[i] {
			t.Fatalf("trace step %d differs: %+v vs %+v", i, replay.Trace[i], first.Trace[i])
		}
	}
}

func TestReplayAbortsWhenScheduleExhausted(t *testing.T) {
	r := engine.Run(fig3, &engine.ReplayChooser{
		Schedule: []engine.Alt{{Tid: 0, Arg: -1}}, // just start main
	}, cfg())
	if r.Outcome != engine.Aborted {
		t.Fatalf("outcome = %v, want aborted", r.Outcome)
	}
	if r.Steps != 1 {
		t.Fatalf("steps = %d, want 1", r.Steps)
	}
}

// settleGoroutines polls until at most max goroutines are left or a
// deadline passes (the runtime retires exiting goroutines on its own
// time) and returns the last count.
func settleGoroutines(max int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > max && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// deadlockProg deadlocks under every schedule: the child blocks on the
// mutex main holds while main joins it.
func deadlockProg(t *engine.T) {
	m := syncmodel.NewMutex(t, "m")
	m.Lock(t)
	h := t.Go("child", func(t *engine.T) { m.Lock(t) })
	h.Join(t)
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	abortMidFlight := func() engine.Chooser {
		return &engine.ReplayChooser{
			Schedule: []engine.Alt{{Tid: 0, Arg: -1}, {Tid: 0, Arg: -1}, {Tid: 1, Arg: -1}},
		}
	}
	for i := 0; i < 50; i++ {
		// Mix of outcomes, including aborts with threads mid-flight.
		engine.Run(fig3, abortMidFlight(), cfg())
		engine.Run(fig3, engine.FirstChooser{}, cfg())
	}
	if after := settleGoroutines(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: before %d, after %d", before, after)
	}

	// A pool keeps its worker coroutines (goroutines, to the runtime)
	// between runs, whatever the outcome; Close retires all of them.
	before = runtime.NumGoroutine()
	var pool engine.Pool
	for i := 0; i < 20; i++ {
		for _, run := range []struct {
			prog func(*engine.T)
			ch   engine.Chooser
			want engine.Outcome
		}{
			{fig3, engine.FirstChooser{}, engine.Terminated},
			{func(t *engine.T) { t.Go("bad", func(t *engine.T) { t.Failf("boom") }) }, maxTidChooser{}, engine.Violation},
			{deadlockProg, engine.FirstChooser{}, engine.Deadlock},
			{fig3, abortMidFlight(), engine.Aborted},
		} {
			if r := pool.Run(run.prog, run.ch, cfg()); r.Outcome != run.want {
				t.Fatalf("pooled run %d: outcome = %v, want %v", i, r.Outcome, run.want)
			}
		}
	}
	if during := runtime.NumGoroutine(); during <= before {
		t.Fatalf("pool holds no worker between runs: %d goroutines, %d before", during, before)
	}
	pool.Close()
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutines leaked past Pool.Close: before %d, after %d", before, after)
	}
}

// TestGoexitInBody: runtime.Goexit in a thread body — what
// testing.T.FailNow does — must not kill the goroutine that called Run
// (iter.Pull re-raises a coroutine's Goexit in its resumer). The
// execution ends with a violation naming the thread, at the price of
// one leaked coroutine, and a Pool stays usable.
func TestGoexitInBody(t *testing.T) {
	prog := func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 0)
		h := t.Go("quitter", func(t *engine.T) {
			v.Store(t, 1)
			runtime.Goexit()
		})
		h.Join(t)
	}
	// run calls f on a goroutine of its own: a Goexit that escapes the
	// engine closes the channel without a result instead of ending the
	// test goroutine.
	run := func(f func() *engine.Result) *engine.Result {
		ch := make(chan *engine.Result, 1)
		go func() {
			defer close(ch)
			ch <- f()
		}()
		return <-ch
	}
	check := func(what string, r *engine.Result) {
		t.Helper()
		if r == nil {
			t.Fatalf("%s: Goexit in a body killed Run's caller", what)
		}
		if r.Outcome != engine.Violation || r.Violation == nil || r.Violation.Tid != 1 ||
			!strings.Contains(r.Violation.Msg, "quitter") || !strings.Contains(r.Violation.Msg, "Goexit") {
			t.Fatalf("%s: outcome %v, violation %v; want a violation naming thread 1 (quitter) and Goexit",
				what, r.Outcome, r.Violation)
		}
	}
	before := runtime.NumGoroutine()
	for _, wd := range []time.Duration{0, time.Second} {
		c := cfg()
		c.Watchdog = wd
		check("single-use", run(func() *engine.Result { return engine.Run(prog, engine.FirstChooser{}, c) }))
	}
	var pool engine.Pool
	check("pooled", run(func() *engine.Result { return pool.Run(prog, engine.FirstChooser{}, cfg()) }))
	for i := 0; i < 3; i++ {
		if r := run(func() *engine.Result { return pool.Run(fig3, engine.FirstChooser{}, cfg()) }); r == nil || r.Outcome != engine.Terminated {
			t.Fatalf("pool unusable after a Goexit run: %+v", r)
		}
	}
	pool.Close()
	// Three executions called Goexit: at most three coroutines stay.
	if after := settleGoroutines(before + 3); after > before+3 {
		t.Fatalf("goroutines leaked: before %d, after %d, want at most 3 more", before, after)
	}
}

// TestHubPanicReachesCaller: a panic on the hub — here a chooser's, at
// the first decision — surfaces in the goroutine that called Run, where
// the search's recover can see it, also when the watchdog has put the
// hub on a goroutine of its own.
func TestHubPanicReachesCaller(t *testing.T) {
	for _, wd := range []time.Duration{0, time.Second} {
		c := cfg()
		c.Watchdog = wd
		func() {
			defer func() {
				if p := recover(); p != "chooser boom" {
					t.Fatalf("watchdog %v: recovered %v, want the chooser's panic", wd, p)
				}
			}()
			engine.Run(fig3, engine.FuncChooser(func(*engine.ChooseContext) (engine.Alt, bool) {
				panic("chooser boom")
			}), c)
		}()
	}
}

// TestThreadSidePanicReachesCaller: from step 1 on the fast path runs
// the chooser on the model thread, inside a section that thread holds.
// A panic there must reach Run's caller exactly like a hub-side one —
// with and without the watchdog, on a single-use engine and on a pooled
// one, and the pool must be usable afterwards — instead of hanging the
// thread's exit path on its own gate.
func TestThreadSidePanicReachesCaller(t *testing.T) {
	boomAtThird := func() engine.Chooser {
		calls := 0
		return engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
			if calls++; calls == 3 {
				panic("chooser boom")
			}
			return ctx.Cands[0], true
		})
	}
	var pool engine.Pool
	defer pool.Close()
	runs := map[string]func(engine.Chooser, engine.Config) *engine.Result{
		"single-use": func(ch engine.Chooser, c engine.Config) *engine.Result { return engine.Run(fig3, ch, c) },
		"pooled":     func(ch engine.Chooser, c engine.Config) *engine.Result { return pool.Run(fig3, ch, c) },
	}
	for name, run := range runs {
		for _, wd := range []time.Duration{0, time.Second} {
			c := cfg()
			c.Watchdog = wd
			func() {
				defer func() {
					if p := recover(); p != "chooser boom" {
						t.Fatalf("%s, watchdog %v: recovered %v, want the chooser's panic", name, wd, p)
					}
				}()
				run(boomAtThird(), c)
			}()
			if r := run(engine.FirstChooser{}, c); r.Outcome != engine.Terminated {
				t.Fatalf("%s, watchdog %v: run after the panic: outcome %v", name, wd, r.Outcome)
			}
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	// The same schedule must produce the same fingerprint sequence.
	collect := func() []engine.Fingerprint {
		var fps []engine.Fingerprint
		mon := fpMonitor{fps: &fps}
		c := cfg()
		c.Monitor = mon
		r := engine.Run(fig3, engine.FirstChooser{}, c)
		if r.Outcome != engine.Terminated {
			t.Fatalf("outcome = %v", r.Outcome)
		}
		return fps
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("fingerprint counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fingerprint %d differs", i)
		}
	}
}

type fpMonitor struct{ fps *[]engine.Fingerprint }

func (m fpMonitor) AfterInit(e *engine.Engine) { *m.fps = append(*m.fps, e.Fingerprint()) }
func (m fpMonitor) AfterStep(e *engine.Engine) { *m.fps = append(*m.fps, e.Fingerprint()) }

func TestRelockFails(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		m := syncmodel.NewMutex(t, "m")
		m.Lock(t)
		m.Lock(t)
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Violation {
		t.Fatalf("outcome = %v, want violation", r.Outcome)
	}
}

func TestUnlockByNonOwnerFails(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		m := syncmodel.NewMutex(t, "m")
		m.Unlock(t)
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Violation {
		t.Fatalf("outcome = %v, want violation", r.Outcome)
	}
}

func TestLastScheduledAndStepCount(t *testing.T) {
	var steps int64
	mon := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		steps = ctx.Engine.StepCount()
		return ctx.Cands[0], true
	})
	r := engine.Run(func(t *engine.T) {
		t.Yield()
		t.Yield()
	}, mon, cfg())
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if steps != r.Steps-1 {
		t.Fatalf("last observed StepCount = %d, result steps = %d", steps, r.Steps)
	}
}

func TestYieldCounting(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		t.Yield()
		t.Sleep(5)
		t.Yield()
	}, engine.FirstChooser{}, cfg())
	if r.Yields != 3 {
		t.Fatalf("yields = %d, want 3 (Sleep is a yield)", r.Yields)
	}
}

func TestOutcomeStrings(t *testing.T) {
	cases := map[engine.Outcome]string{
		engine.Terminated: "terminated",
		engine.Deadlock:   "deadlock",
		engine.Violation:  "violation",
		engine.Diverged:   "diverged",
		engine.Aborted:    "aborted",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	if engine.Outcome(42).String() == "" {
		t.Error("unknown outcome renders empty")
	}
}

func TestFormatTraceDeadlock(t *testing.T) {
	prog := func(t *engine.T) {
		a := syncmodel.NewMutex(t, "a")
		b := syncmodel.NewMutex(t, "b")
		t.Go("ab", func(t *engine.T) {
			a.Lock(t)
			b.Lock(t)
		})
		t.Go("ba", func(t *engine.T) {
			b.Lock(t)
			a.Lock(t)
		})
	}
	turn := 0
	ch := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		want := tidset.Tid(1 + turn%2)
		for _, c := range ctx.Cands {
			if c.Tid == want {
				turn++
				return c, true
			}
		}
		return ctx.Cands[0], true
	})
	r := engine.Run(prog, ch, cfg())
	if r.Outcome != engine.Deadlock {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	out := r.FormatTrace()
	if !strings.Contains(out, "deadlock") || !strings.Contains(out, "blocked") {
		t.Fatalf("FormatTrace missing deadlock info:\n%s", out)
	}
}

func TestFormatTraceScheduleOnly(t *testing.T) {
	r := engine.Run(func(t *engine.T) { t.Yield() }, engine.FirstChooser{}, engine.Config{Fair: true})
	out := r.FormatTrace()
	if !strings.Contains(out, "schedule:") {
		t.Fatalf("FormatTrace without trace should print the schedule:\n%s", out)
	}
}

func TestMultiMonitorFansOut(t *testing.T) {
	var inits, steps [2]int
	mk := func(i int) engine.Monitor {
		return countMonitor{init: &inits[i], step: &steps[i]}
	}
	c := cfg()
	c.Monitor = engine.MultiMonitor{mk(0), mk(1)}
	r := engine.Run(func(t *engine.T) { t.Yield() }, engine.FirstChooser{}, c)
	for i := 0; i < 2; i++ {
		if inits[i] != 1 {
			t.Errorf("monitor %d: inits = %d", i, inits[i])
		}
		if int64(steps[i]) != r.Steps {
			t.Errorf("monitor %d: steps = %d, want %d", i, steps[i], r.Steps)
		}
	}
}

type countMonitor struct{ init, step *int }

func (m countMonitor) AfterInit(*engine.Engine) { *m.init++ }
func (m countMonitor) AfterStep(*engine.Engine) { *m.step++ }

func TestHandleAndNames(t *testing.T) {
	engine.Run(func(t *engine.T) {
		if t.ID() != 0 || t.Name() != "main" {
			t.Failf("main identity wrong: %d %q", t.ID(), t.Name())
		}
		h := t.Go("worker", func(t *engine.T) {
			if t.ID() != 1 || t.Name() != "worker" {
				t.Failf("worker identity wrong: %d %q", t.ID(), t.Name())
			}
		})
		if h.ID() != 1 {
			t.Failf("handle id = %d", h.ID())
		}
		h.Join(t)
	}, engine.FirstChooser{}, cfg())
}

func TestOpInfoString(t *testing.T) {
	cases := []struct {
		info engine.OpInfo
		want string
	}{
		{engine.OpInfo{Kind: "yield", Obj: engine.NoObj}, "yield"},
		{engine.OpInfo{Kind: "sleep", Obj: engine.NoObj, Aux: 5}, "sleep(5)"},
		{engine.OpInfo{Kind: "lock", Obj: 3}, "lock(#3,0)"},
	}
	for _, c := range cases {
		if got := c.info.String(); got != c.want {
			t.Errorf("%+v String = %q, want %q", c.info, got, c.want)
		}
	}
}

func TestViolationInfoString(t *testing.T) {
	v := &engine.ViolationInfo{Tid: 2, Msg: "boom", IsPanic: true}
	if !strings.Contains(v.String(), "panic") || !strings.Contains(v.String(), "boom") {
		t.Fatalf("ViolationInfo.String = %q", v.String())
	}
}

func TestDefaultMaxStepsApplied(t *testing.T) {
	// MaxSteps zero must fall back to the default rather than 0.
	r := engine.Run(func(t *engine.T) {
		t.Yield()
	}, engine.FirstChooser{}, engine.Config{Fair: true})
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v", r.Outcome)
	}
}

func TestPerThreadStats(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		h := t.Go("worker", func(t *engine.T) {
			t.Yield()
			t.Yield()
		})
		h.Join(t)
	}, engine.FirstChooser{}, cfg())
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if len(r.PerThread) != 2 {
		t.Fatalf("PerThread = %v", r.PerThread)
	}
	main, worker := r.PerThread[0], r.PerThread[1]
	if main.Name != "main" || worker.Name != "worker" {
		t.Fatalf("names: %v", r.PerThread)
	}
	if worker.Yields != 2 {
		t.Fatalf("worker yields = %d, want 2", worker.Yields)
	}
	if main.Yields != 0 {
		t.Fatalf("main yields = %d, want 0", main.Yields)
	}
	if !main.Exited || !worker.Exited {
		t.Fatal("threads not marked exited")
	}
	var sum int64
	for _, s := range r.PerThread {
		sum += s.Steps
	}
	if sum != r.Steps {
		t.Fatalf("per-thread steps sum %d != total %d", sum, r.Steps)
	}
}

// TestIsPreemptionSemantics pins the §4 preemption-accounting rules:
// continuing the previous thread is never a preemption; switching away
// from an enabled thread is; switches after a voluntary yield or a
// fairness-forced block are free.
func TestIsPreemptionSemantics(t *testing.T) {
	type probe struct {
		step        int
		prev        tidset.Tid
		prevEnabled bool
		prevBlocked bool
		prevYielded bool
		inCands     bool
	}
	var probes []probe
	prog := func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		wg := syncmodel.NewWaitGroup(t, "wg", 2)
		for i := 0; i < 2; i++ {
			t.Go("w", func(t *engine.T) {
				x.Add(t, 1)
				t.Yield()
				x.Add(t, 1)
				wg.Done(t)
			})
		}
		wg.Wait(t)
	}
	ch := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		probes = append(probes, probe{
			step:        ctx.Step,
			prev:        ctx.PrevTid,
			prevEnabled: ctx.PrevEnabled,
			prevBlocked: ctx.PrevFairBlocked,
			prevYielded: ctx.PrevYielded,
			inCands:     ctx.PrevInCands(),
		})
		// Exercise IsPreemption on every candidate.
		for _, c := range ctx.Cands {
			got := ctx.IsPreemption(c)
			want := ctx.PrevTid != tidset.None && c.Tid != ctx.PrevTid &&
				ctx.PrevEnabled && !ctx.PrevFairBlocked && !ctx.PrevYielded
			if got != want {
				t.Errorf("step %d alt %v: IsPreemption = %v, want %v", ctx.Step, c, got, want)
			}
		}
		return ctx.Cands[0], true
	})
	r := engine.Run(prog, ch, cfg())
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if probes[0].prev != tidset.None {
		t.Error("first step has a previous thread")
	}
	sawYieldFree := false
	for _, p := range probes {
		if p.prevYielded {
			sawYieldFree = true
		}
	}
	if !sawYieldFree {
		t.Error("no post-yield step observed")
	}
}

func TestEngineAccessors(t *testing.T) {
	var inspected bool
	ch := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		e := ctx.Engine
		if ctx.Step == 3 {
			inspected = true
			if e.NumThreads() < 1 {
				t.Error("NumThreads < 1")
			}
			if got := e.ThreadPC(0); got != 7 {
				t.Errorf("ThreadPC = %d, want 7", got)
			}
			if e.LastScheduled() == tidset.None {
				t.Error("LastScheduled unset after steps")
			}
			if e.LastOpInfo().Kind == "" {
				t.Error("LastOpInfo empty")
			}
			snap := e.SnapshotThread(0)
			if !snap.Live || snap.PC != 7 {
				t.Errorf("SnapshotThread = %+v", snap)
			}
			if engine.HashBytes([]byte("a")) == engine.HashBytes([]byte("b")) {
				t.Error("HashBytes collides trivially")
			}
		}
		return ctx.Cands[0], true
	})
	r := engine.Run(func(t *engine.T) {
		t.Label(7)
		t.Yield()
		t.Yield()
		t.Yield()
	}, ch, cfg())
	if r.Outcome != engine.Terminated || !inspected {
		t.Fatalf("outcome = %v inspected = %v", r.Outcome, inspected)
	}
}

func TestFormatColumns(t *testing.T) {
	r := engine.Run(func(t *engine.T) {
		x := syncmodel.NewIntVar(t, "x", 0)
		h := t.Go("w", func(t *engine.T) { x.Store(t, 1) })
		h.Join(t)
	}, engine.FirstChooser{}, cfg())
	out := r.FormatColumns(0)
	for _, want := range []string{"0:main", "1:w", "store", "spawn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatColumns missing %q:\n%s", want, out)
		}
	}
	// Every trace row appears.
	if got := strings.Count(out, "\n"); int64(got) < r.Steps {
		t.Fatalf("too few lines: %d for %d steps", got, r.Steps)
	}
	// Without a trace it falls back to FormatTrace.
	r2 := engine.Run(func(t *engine.T) { t.Yield() }, engine.FirstChooser{},
		engine.Config{Fair: true})
	if !strings.Contains(r2.FormatColumns(0), "schedule:") {
		t.Fatal("fallback missing")
	}
}
