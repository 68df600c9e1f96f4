package engine_test

import (
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/obs"
	"fairmc/internal/syncmodel"
)

// TestWatchdogWedgedThread: a model thread that blocks on a raw Go
// channel — outside the conc API — can never reach its next scheduling
// point. The watchdog must end the execution with outcome Wedged and
// identify the offending thread, instead of hanging the engine forever.
func TestWatchdogWedgedThread(t *testing.T) {
	block := make(chan struct{}) // never closed: the thread wedges for good
	c := cfg()
	c.Watchdog = 50 * time.Millisecond
	done := make(chan *engine.Result, 1)
	go func() {
		done <- engine.Run(func(t *engine.T) {
			v := syncmodel.NewIntVar(t, "v", 0)
			t.Go("stuck", func(t *engine.T) {
				v.Store(t, 1)
				<-block // uncontrolled blocking: the engine cannot see or unwind this
			})
			v.Store(t, 2)
		}, engine.FirstChooser{}, c)
	}()
	var r *engine.Result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine hung despite watchdog")
	}
	if r.Outcome != engine.Wedged {
		t.Fatalf("outcome = %v, want wedged\n%s", r.Outcome, r.FormatTrace())
	}
	if r.Wedge == nil {
		t.Fatal("Wedged result without WedgeInfo")
	}
	if r.Wedge.Name != "stuck" {
		t.Fatalf("wedged thread = %d (%s), want the stuck thread", r.Wedge.Tid, r.Wedge.Name)
	}
	if r.Wedge.String() == "" || r.Wedge.LastOp.Kind == "" {
		t.Fatalf("WedgeInfo missing diagnostics: %+v", r.Wedge)
	}
	// The granted-but-never-completed step is not part of the schedule:
	// replaying it must reproduce the wedge-free prefix.
	if int64(len(r.Schedule)) != r.Steps {
		t.Fatalf("schedule has %d entries for %d steps", len(r.Schedule), r.Steps)
	}
}

// TestWatchdogWakingThreadSelfDestructs: a thread that merely outsleeps
// the watchdog wakes up after the engine has given up on it. At its
// next scheduling point it must observe the abort flag and unwind
// itself without corrupting engine state or panicking the process.
func TestWatchdogWakingThreadSelfDestructs(t *testing.T) {
	c := cfg()
	c.Watchdog = 20 * time.Millisecond
	r := engine.Run(func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 0)
		t.Go("sleeper", func(t *engine.T) {
			time.Sleep(200 * time.Millisecond) // uncontrolled wait, > watchdog
			v.Store(t, 1)                      // scheduling point after waking
		})
		v.Store(t, 2)
	}, engine.FirstChooser{}, c)
	if r.Outcome != engine.Wedged {
		t.Fatalf("outcome = %v, want wedged", r.Outcome)
	}
	if r.Wedge == nil || r.Wedge.Name != "sleeper" {
		t.Fatalf("wedge = %+v, want the sleeper thread", r.Wedge)
	}
	// Give the sleeper time to wake and self-destruct so the leak
	// detector in TestNoGoroutineLeaks isn't confused by this test.
	time.Sleep(300 * time.Millisecond)
}

// TestWatchdogCooperativeProgramUnaffected: a program where every
// thread parks promptly must be untouched by an armed watchdog.
func TestWatchdogCooperativeProgramUnaffected(t *testing.T) {
	c := cfg()
	c.Watchdog = time.Second
	r := engine.Run(func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 0)
		h := t.Go("child", func(t *engine.T) { v.Store(t, 1) })
		h.Join(t)
		t.Assert(v.Load(t) == 1, "child ran")
	}, engine.FirstChooser{}, c)
	if r.Outcome != engine.Terminated {
		t.Fatalf("outcome = %v, want terminated\n%s", r.Outcome, r.FormatTrace())
	}
	if r.Wedge != nil || r.DeadlineExceeded {
		t.Fatalf("spurious wedge/deadline: %+v", r)
	}
}

// TestDeadlineAborts: an already-expired Config.Deadline must cut the
// execution immediately with outcome Aborted and DeadlineExceeded set.
func TestDeadlineAborts(t *testing.T) {
	c := cfg()
	c.Deadline = time.Now().Add(-time.Second)
	r := engine.Run(func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 0)
		for i := 0; i < 100; i++ {
			v.Store(t, int64(i))
		}
	}, engine.FirstChooser{}, c)
	if r.Outcome != engine.Aborted {
		t.Fatalf("outcome = %v, want aborted", r.Outcome)
	}
	if !r.DeadlineExceeded {
		t.Fatal("DeadlineExceeded not set")
	}
}

// TestStopInterruptsExecution: closing Config.Stop cuts an execution
// that would otherwise run to MaxSteps, within one poll interval (64
// steps), with outcome Aborted and Interrupted set — on the fast path
// and off, single-use and pooled — and leaves it out of the metrics,
// since whoever resumes runs it again. No sleeps: the chooser closes
// Stop at step 100 of a spin nothing ever ends.
func TestStopInterruptsExecution(t *testing.T) {
	spin := func(t *engine.T) {
		flag := syncmodel.NewIntVar(t, "flag", 0)
		t.Go("spinner", func(t *engine.T) {
			for flag.Load(t) == 0 {
			}
		})
		for flag.Load(t) == 0 {
		}
	}
	var pool engine.Pool
	defer pool.Close()
	m := obs.NewMetrics()
	for _, noFast := range []bool{false, true} {
		for name, run := range map[string]func(func(*engine.T), engine.Chooser, engine.Config) *engine.Result{
			"run": engine.Run, "pool": pool.Run,
		} {
			stop := make(chan struct{})
			r := run(spin, engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
				if ctx.Step == 100 {
					close(stop)
				}
				return ctx.Cands[ctx.Step%len(ctx.Cands)], true
			}), engine.Config{MaxSteps: 1 << 20, Stop: stop, NoFastPath: noFast, Metrics: m})
			if r.Outcome != engine.Aborted || !r.Interrupted || r.DeadlineExceeded {
				t.Fatalf("%s noFast=%v: outcome %v interrupted %v deadline %v, want an interrupted abort",
					name, noFast, r.Outcome, r.Interrupted, r.DeadlineExceeded)
			}
			if r.Steps <= 100 || r.Steps > 164 {
				t.Fatalf("%s noFast=%v: cut at step %d, want within 64 steps of 100", name, noFast, r.Steps)
			}
		}
	}
	// An open Stop changes nothing, and the flag does not survive into
	// the pool's next run.
	r := pool.Run(spin, engine.FirstChooser{}, engine.Config{MaxSteps: 300, Stop: make(chan struct{}), Metrics: m})
	if r.Outcome != engine.Diverged || r.Interrupted {
		t.Fatalf("open Stop: outcome %v interrupted %v, want diverged", r.Outcome, r.Interrupted)
	}
	if n, steps := m.Executions.Load(), m.Steps.Load(); n != 1 || steps != 300 {
		t.Fatalf("metrics count %d executions, %d steps; want only the uninterrupted run's 1 and 300", n, steps)
	}
}

// TestReplayDivergenceReturnsError: a strict replay of a schedule that
// names an unschedulable alternative must end with outcome Aborted and
// a structured DivergenceError — not a panic mid-engine.
func TestReplayDivergenceReturnsError(t *testing.T) {
	prog := func(t *engine.T) {
		v := syncmodel.NewIntVar(t, "v", 0)
		h := t.Go("child", func(t *engine.T) { v.Store(t, 1) })
		h.Join(t)
	}
	// Thread 7 never exists: the schedule cannot apply at step 0.
	ch := &engine.ReplayChooser{
		Schedule: []engine.Alt{{Tid: 7}},
	}
	r := engine.Run(prog, ch, cfg())
	if r.Outcome != engine.Aborted {
		t.Fatalf("outcome = %v, want aborted", r.Outcome)
	}
	if ch.Div == nil || !ch.Div.NotSchedulable {
		t.Fatalf("divergence did not populate ReplayChooser.Div as not schedulable: %+v", ch.Div)
	}
	if ch.Div.Step != 0 {
		t.Fatalf("Div.Step = %d, want 0", ch.Div.Step)
	}
	if ch.Div.Error() == "" {
		t.Fatal("empty error message")
	}
}
