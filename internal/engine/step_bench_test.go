package engine_test

import (
	"testing"

	"fairmc/conc"
	"fairmc/internal/engine"
	"fairmc/internal/rng"
)

// ringOp passes a token round a ring of threads: it is enabled for the
// thread holding the token and hands the token to the next, so once
// every thread is started exactly one is schedulable at each step and
// — in a ring of more than one — it is never the one that ran last. It
// is Guarded, on a token that is no registered object.
type ringOp struct {
	tok   *int
	me, n int
}

func (o *ringOp) Enabled() bool { return *o.tok == o.me }
func (o *ringOp) Execute() engine.Op {
	*o.tok = (o.me + 1) % o.n
	return nil
}
func (o *ringOp) Yielding() bool      { return false }
func (o *ringOp) Info() engine.OpInfo { return engine.OpInfo{Kind: "ring", Obj: engine.NoObj} }

// freeOp is unguarded and touches nothing: a thread of them is
// schedulable at every step.
type freeOp struct{}

func (freeOp) Execute() engine.Op  { return nil }
func (freeOp) Yielding() bool      { return false }
func (freeOp) Info() engine.OpInfo { return engine.OpInfo{Kind: "free", Obj: engine.NoObj} }

// stepProg is a benchmark program built once: its thread bodies and ops
// are made here, not by the running program, so that a pooled execution
// of it allocates nothing and every allocation a step makes shows.
type stepProg struct {
	body func(*engine.T)
	cfg  engine.Config
}

// ring is a token ring of n threads taking rounds steps each, with no
// fair scheduler around it.
func ring(n, rounds int) stepProg {
	tok := 0
	bodies := make([]func(*engine.T), n)
	for me := range bodies {
		op := &ringOp{tok: &tok, me: me, n: n}
		bodies[me] = func(t *engine.T) {
			for i := 0; i < rounds; i++ {
				t.Do(op)
			}
		}
	}
	return stepProg{body: func(t *engine.T) {
		tok = 0
		for _, b := range bodies[1:] {
			t.Go("ring", b)
		}
		bodies[0](t)
	}}
}

// freeRounds is a body taking rounds steps that are always schedulable,
// yielding on every eighth.
func freeRounds(rounds int) func(*engine.T) {
	return func(t *engine.T) {
		for i := 1; i <= rounds; i++ {
			if i%8 == 0 {
				t.Yield()
			} else {
				t.Do(freeOp{})
			}
		}
	}
}

// wide is n threads under the fair scheduler, all of them schedulable at
// every step and each yielding on every eighth of its rounds steps: a
// scheduling point with a wide enabled set, windows closing and priority
// edges coming and going — random-p2's shape without its program.
func wide(n, rounds int) stepProg {
	worker := freeRounds(rounds)
	return stepProg{cfg: engine.Config{Fair: true}, body: func(t *engine.T) {
		for i := 1; i < n; i++ {
			t.Go("wide", worker)
		}
		worker(t)
	}}
}

// blocked is n threads under the fair scheduler, all but two of them
// parked on a mutex the main thread holds while it and one free thread
// take rounds steps each, yielding on every eighth: a scheduling point
// with many guarded ops to ask and few enabled — the shape of
// random-p2's waits. The mutex is the program's one allocation.
func blocked(n, rounds int) stepProg {
	var mu *conc.Mutex
	free := freeRounds(rounds)
	waiter := func(t *engine.T) {
		mu.Lock(t)
		mu.Unlock(t)
	}
	return stepProg{cfg: engine.Config{Fair: true}, body: func(t *engine.T) {
		mu = conc.NewMutex(t, "mu")
		mu.Lock(t)
		t.Go("free", free)
		for i := 2; i < n; i++ {
			t.Go("waiter", waiter)
		}
		free(t)
		mu.Unlock(t)
	}}
}

// randomWalk schedules uniformly at random from a generator seeded
// with seed.
func randomWalk(seed uint64) engine.FuncChooser {
	r := rng.New(seed)
	return func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		return ctx.Cands[r.Intn(len(ctx.Cands))], true
	}
}

// pooledRunner returns a function running p once on a warm pool under a
// seeded random chooser and returning the steps taken, and the pool's
// Close.
func pooledRunner(tb testing.TB, p stepProg) (run func() int64, stop func()) {
	pick := randomWalk(1)
	pool := new(engine.Pool)
	run = func() int64 {
		res := pool.Run(p.body, pick, p.cfg)
		if res.Outcome != engine.Terminated {
			tb.Fatalf("benchmark program ended %v", res.Outcome)
		}
		return res.Steps
	}
	run() // the pool's workers exist and their stacks have grown
	return run, pool.Close
}

// benchmarkStep reports the cost of one engine step of p, in ns/step,
// over pooled executions: the engine layer's own figure (decide, commit,
// and the switch if the thread changes) with no program and no search
// around it. An iteration is a step, so allocs/op is allocations per
// step.
func benchmarkStep(b *testing.B, p stepProg) {
	run, stop := pooledRunner(b, p)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for steps < int64(b.N) {
		steps += run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkStepHandoff: a 25-thread ring, so every step changes thread.
func BenchmarkStepHandoff(b *testing.B) { benchmarkStep(b, ring(25, 40)) }

// BenchmarkStepInline: one thread stepping alone, so no step does.
func BenchmarkStepInline(b *testing.B) { benchmarkStep(b, ring(1, 1000)) }

// BenchmarkStepWide: 26 threads under the fair scheduler, all enabled.
func BenchmarkStepWide(b *testing.B) { benchmarkStep(b, wide(26, 40)) }

// BenchmarkStepBlocked: 26 threads under the fair scheduler, 24 of them
// blocked for most of the run.
func BenchmarkStepBlocked(b *testing.B) { benchmarkStep(b, blocked(26, 200)) }

// TestStepAllocatesNothing is the four benchmarks' 0 allocs/op as a
// test: a whole pooled execution of each program allocates nothing but
// what the program makes itself.
func TestStepAllocatesNothing(t *testing.T) {
	for name, c := range map[string]struct {
		p   stepProg
		own float64
	}{
		"handoff": {ring(25, 40), 0},
		"inline":  {ring(1, 1000), 0},
		"wide":    {wide(26, 40), 0},
		"blocked": {blocked(26, 200), 0},
	} {
		run, stop := pooledRunner(t, c.p)
		if allocs := testing.AllocsPerRun(20, func() { run() }); allocs != c.own {
			t.Errorf("%s: a pooled execution allocates %.1f objects, want the program's %.0f", name, allocs, c.own)
		}
		stop()
	}
}
