package engine_test

import (
	"testing"

	"fairmc/internal/engine"
	"fairmc/internal/rng"
)

// ringOp passes a token round a ring of threads: it is enabled for the
// thread holding the token and hands the token to the next, so once
// every thread is started exactly one is schedulable at each step and
// — in a ring of more than one — it is never the one that ran last.
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

// benchmarkStep reports the cost of one engine step, in ns/step, over
// pooled executions of a token ring of n threads taking rounds steps
// each, under a seeded random chooser. It is the engine layer's own
// figure (decide, commit, and the switch if the thread changes) with
// no program, no fair scheduler and no search around it.
func benchmarkStep(b *testing.B, n, rounds int) {
	body := func(t *engine.T) {
		tok := 0
		spin := func(me int) func(*engine.T) {
			return func(t *engine.T) {
				op := &ringOp{tok: &tok, me: me, n: n}
				for i := 0; i < rounds; i++ {
					t.Do(op)
				}
			}
		}
		for me := 1; me < n; me++ {
			t.Go("ring", spin(me))
		}
		spin(0)(t)
	}
	r := rng.New(1)
	pick := engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		return ctx.Cands[r.Intn(len(ctx.Cands))], true
	})
	var pool engine.Pool
	defer pool.Close()
	run := func() int64 {
		res := pool.Run(body, pick, engine.Config{})
		if res.Outcome != engine.Terminated {
			b.Fatalf("ring ended %v", res.Outcome)
		}
		return res.Steps
	}
	run() // the pool's workers exist and their stacks have grown
	b.ResetTimer()
	var steps int64
	for steps < int64(b.N) {
		steps += run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkStepHandoff: a 25-thread ring, so every step changes thread.
func BenchmarkStepHandoff(b *testing.B) { benchmarkStep(b, 25, 40) }

// BenchmarkStepInline: one thread stepping alone, so no step does.
func BenchmarkStepInline(b *testing.B) { benchmarkStep(b, 1, 1000) }
