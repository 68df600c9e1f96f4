package main

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"fairmc/internal/core"
	"fairmc/internal/engine"
	"fairmc/internal/fsx"
	"fairmc/internal/ledger"
	"fairmc/internal/por"
	"fairmc/internal/rng"
	"fairmc/internal/search"
	"fairmc/internal/tidset"
)

// probeEnv is what a probe works with: the workload's own check (seeded
// as the run's instances were), the run's seed, and the tracer to
// record its span in.
type probeEnv struct {
	tr    *tracer
	seed  uint64
	check check
	// budget is how long each time-boxed measurement inside a probe runs.
	budget time.Duration
}

// probe calls one layer's public functions directly, from the traced
// run, and reports the layer's cost in isolation. A workload runs the
// probes of the layers it exercises.
type probe func(env *probeEnv, m metricSet) error

// timed runs f under a span named after the probe.
func (env *probeEnv) timed(name string, f func() error) error {
	start := now()
	err := f()
	env.tr.add(0, "probe."+name, "", start, now())
	return err
}

// probeFair times one fair-scheduler decision — Schedulable then OnStep
// — over a fixed synthetic pattern: the lowest schedulable thread runs,
// every thread yields on each second step of its own, and every eighth
// step one thread becomes disabled and the previous one enabled again.
func probeFair(env *probeEnv, m metricSet) error {
	return env.timed("core.Fair", func() error {
		for _, p := range []struct {
			metric  string
			threads int
		}{{"core.fair_step_ns", 4}, {"core.fair_step_wide_ns", 26}} {
			f := core.NewFair(p.threads, 1)
			es := tidset.Universe(p.threads)
			after := es.Clone()
			var sched tidset.Set
			own := make([]int, p.threads)
			disabled := tidset.None
			start := time.Now()
			i := 0
			for ; i&0xfff != 0 || time.Since(start) < env.budget; i++ { // look at the clock every 4096 steps
				t := f.SchedulableInto(&sched, es).Min()
				if t == tidset.None {
					return fmt.Errorf("core.Fair: nothing schedulable from enabled set %s at step %d", es, i)
				}
				after.CopyFrom(es)
				if i%8 == 0 {
					if disabled != tidset.None {
						after.Add(disabled)
					}
					disabled = tidset.Tid(i / 8 % p.threads)
					after.Remove(disabled)
				}
				own[t]++
				f.OnStep(t, own[t]%2 == 0, es, after)
				es.CopyFrom(after)
			}
			m[p.metric] = float64(time.Since(start).Nanoseconds()) / float64(i)
		}
		return nil
	})
}

// randomChooser schedules uniformly at random from the benchmark's own
// seeded generator.
func randomChooser(r *rng.Rand) engine.FuncChooser {
	return func(ctx *engine.ChooseContext) (engine.Alt, bool) {
		return ctx.Cands[r.Intn(len(ctx.Cands))], true
	}
}

// probeEngine times one engine step of the workload's program under a
// random schedule, on the fast path (the running thread grants itself
// the next step) and with every step handed through the engine
// goroutine.
func probeEngine(env *probeEnv, m metricSet) error {
	body, err := env.check.body()
	if err != nil {
		return err
	}
	return env.timed("engine.Pool.Run", func() error {
		for _, p := range []struct {
			metric     string
			noFastPath bool
		}{{"engine.step_ns", false}, {"engine.step_handoff_ns", true}} {
			cfg := engine.Config{Fair: env.check.opts.Fair, MaxSteps: env.check.opts.MaxSteps, NoFastPath: p.noFastPath}
			r := rng.New(env.seed)
			var pool engine.Pool
			var steps int64
			start := time.Now()
			for time.Since(start) < env.budget {
				res := pool.Run(body, randomChooser(r), cfg)
				if res.Outcome != engine.Terminated {
					pool.Close()
					return fmt.Errorf("engine.Pool.Run: %s ended %s under a random schedule", env.check.program, res.Outcome)
				}
				steps += res.Steps
			}
			m[p.metric] = float64(time.Since(start).Nanoseconds()) / float64(steps)
			pool.Close()
		}
		return nil
	})
}

// probeAnalyze times por.Analyze over the traces of random executions
// of the workload's program, recorded by the benchmark's own chooser
// the way a DPOR unit records them.
func probeAnalyze(env *probeEnv, m metricSet) error {
	body, err := env.check.body()
	if err != nil {
		return err
	}
	return env.timed("por.Analyze", func() error {
		const execs = 200
		r := rng.New(env.seed)
		pick := randomChooser(r)
		var pool engine.Pool
		defer pool.Close()
		var spent time.Duration
		for i := 0; i < execs; i++ {
			var steps []por.ExecStep
			res := pool.Run(body, engine.FuncChooser(func(ctx *engine.ChooseContext) (engine.Alt, bool) {
				alt, _ := pick(ctx)
				st := por.ExecStep{
					Chosen: por.MoveOf(ctx.Engine, alt),
					Alts:   append([]engine.Alt(nil), ctx.Cands...),
					Moves:  make([]por.Move, len(ctx.Cands)),
					Awake:  make([]bool, len(ctx.Cands)),
				}
				for j, a := range ctx.Cands {
					st.Moves[j], st.Awake[j] = por.MoveOf(ctx.Engine, a), true
				}
				steps = append(steps, st)
				return alt, true
			}), engine.Config{MaxSteps: env.check.opts.MaxSteps})
			if res.Outcome != engine.Terminated {
				return fmt.Errorf("por.Analyze: %s ended %s under a random schedule", env.check.program, res.Outcome)
			}
			start := time.Now()
			proposals := por.Analyze(-1, steps)
			spent += time.Since(start)
			if len(proposals) == 0 {
				return fmt.Errorf("por.Analyze: no race in a %d-step execution of %s", len(steps), env.check.program)
			}
		}
		m["por.analyze_us_per_exec"] = float64(spent.Microseconds()) / execs
		return nil
	})
}

// probeLedger times a committing append, with fsync elided as in the
// service workload and with the real fsync of the disk the checkout is
// on. The second is a fact about this machine's disk, not the checker.
func probeLedger(env *probeEnv, m metricSet) error {
	return env.timed("ledger.Append", func() error {
		for _, p := range []struct {
			metric string
			fs     fsx.FS
		}{{"ledger.append_us_p50", elideSync{fsx.OS}}, {"ledger.append_fsync_disk_us_p50", fsx.OS}} {
			dir, err := scratchDir("ledger-probe")
			if err != nil {
				return err
			}
			l, _, err := ledger.Open(dir, ledger.Options{FS: p.fs})
			if err != nil {
				return err
			}
			payload := struct {
				Job    string `json:"job"`
				Shard  int    `json:"shard"`
				Report search.Report
			}{Job: "probe"}
			var us []float64
			for i := 0; i < 500; i++ {
				payload.Shard = i
				start := time.Now()
				if _, err := l.Append("shard_done", payload, true); err != nil {
					l.Close()
					return err
				}
				us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
			}
			if err := l.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			m[p.metric] = median(us)
		}
		return nil
	})
}

// probeServiceTax sets the time a job spends running in the service
// against a local search of the same specification.
func probeServiceTax(env *probeEnv, m metricSet) error {
	body, err := env.check.body()
	if err != nil {
		return err
	}
	return env.timed("search.Explore", func() error {
		opts := env.check.opts
		opts.Parallelism = 2 // the jobs are submitted with RefParallelism 2
		var ms []float64
		for i := 0; i < 9; i++ {
			start := time.Now()
			search.Explore(body, opts)
			ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		}
		m["dist.service_tax_ratio"] = ratio(m["jobs.run_ms_p50"], median(ms))
		return nil
	})
}

// probeShards drives the shard interface the distributed layers use —
// PlanShards, RunShard on two goroutines, ShardMerger.Offer, Finish —
// times each stage, and checks the merged report is the one Explore
// returns.
func probeShards(env *probeEnv, m metricSet) error {
	body, err := env.check.body()
	if err != nil {
		return err
	}
	opts := env.check.opts
	return env.timed("search.PlanShards", func() error {
		start := time.Now()
		plan, err := search.PlanShards(body, opts, opts.Parallelism)
		if err != nil {
			return err
		}
		m["search.plan_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6

		reports := make([]*search.Report, len(plan.Shards))
		runMS := make([]float64, len(plan.Shards))
		next := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < opts.Parallelism; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					start := time.Now()
					reports[i] = search.RunShard(body, opts, plan.Shards[i], nil)
					runMS[i] = float64(time.Since(start).Nanoseconds()) / 1e6
				}
			}()
		}
		for i := range plan.Shards {
			next <- i
		}
		close(next)
		wg.Wait()
		m["search.shard_run_ms_p50"] = median(runMS)

		start = time.Now()
		merger := search.NewShardMerger(opts, plan)
		for i, r := range reports {
			merger.Offer(i, r)
		}
		merged := merger.Finish(0, nil)
		m["search.merge_us_per_shard"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(reports))

		want := search.Explore(body, opts)
		want.Elapsed = 0
		if !reflect.DeepEqual(merged, want) {
			return fmt.Errorf("shards of %s merge to %d executions (%v), Explore reports %d (%v)",
				env.check.program, merged.Executions, verdictOfReport(env.check.program, opts, merged),
				want.Executions, verdictOfReport(env.check.program, opts, want))
		}
		return nil
	})
}
