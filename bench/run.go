package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
)

// run executes one benchmark run of w and returns what it measured.
func run(w *workload, seed uint64, sz sizing, traced bool) (*result, error) {
	if runtime.NumCPU() < w.gomaxprocs {
		return nil, fmt.Errorf("needs %d CPUs and this machine has %d: a parallel number from fewer CPUs measures scheduling, not the checker", w.gomaxprocs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(w.gomaxprocs)
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	res := &result{Env: newEnvironment(w, seed, traced)}
	var m metricSet
	var ops opCount
	if traced {
		res.order = perLayer
		m, err = runTraced(w, seed, sz, expected, res, &ops)
	} else {
		res.order = endToEnd
		m, err = runUntraced(w, seed, sz, expected, res, &ops)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics = m.render(res.order)
	res.Attempted, res.Failures = ops.attempted, ops.failures
	return res, nil
}

// opCount tallies operations: every check, every job and every canary
// is one, and fails if its verdict is not the expected one.
type opCount struct {
	attempted int
	failures  []string
}

func (o *opCount) count(r repetition) {
	o.attempted += len(r.latenciesMS)
	o.failures = append(o.failures, r.failures...)
}

// agree is the guard on execs_to_verdict: every repetition of one run
// explores the same number of executions, or the run reports nothing.
func agree(reps []repetition) (int64, error) {
	for _, r := range reps[1:] {
		if r.executions != reps[0].executions {
			return 0, fmt.Errorf("repetitions disagree on execs_to_verdict: %d and %d", reps[0].executions, r.executions)
		}
	}
	return reps[0].executions, nil
}

func walls(reps []repetition) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wallS
	}
	return out
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w *workload, seed uint64, sz sizing, expected map[string]expectation, res *result, ops *opCount) (metricSet, error) {
	// Set-up, several times over: start the workload and run one full
	// verified repetition cold. The first includes process start-up.
	var inst instance
	var setups []float64
	var reps []repetition
	for i := 0; i < sz.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := now()
		if i == 0 {
			start = 0
		}
		var err error
		if inst, err = w.start(seed, false, expected); err != nil {
			return nil, err
		}
		warm := inst.repeat(nil, 0)
		setups = append(setups, (now()-start)/1000)
		ops.count(warm)
		reps = append(reps, warm)
	}
	warmups := len(reps)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := 0; n < sz.reps(); n++ {
		if n > 0 {
			runtime.GC()
		}
		r := inst.repeat(nil, 0)
		ops.count(r)
		reps = append(reps, r)
	}
	runtime.ReadMemStats(&after)
	timed := reps[warmups:]
	execs, err := agree(reps)
	if err != nil {
		return nil, err
	}

	ops.canaries(nil, 0, w.canaries, expected)
	if err := inst.close(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	var latencies []float64
	for _, r := range timed {
		latencies = append(latencies, r.latenciesMS...)
	}
	res.Env.Setups, res.Env.Reps = len(setups), len(timed)
	res.RepWalls = walls(reps)
	return metricSet{
		"setup_s":            median(setups),
		"verdict_s":          median(walls(timed)),
		"execs_to_verdict":   float64(execs),
		"allocs_per_exec":    float64(after.Mallocs-before.Mallocs) / float64(execs*int64(len(timed))),
		"peak_rss_mb":        rss,
		"job_latency_p50_ms": median(latencies),
	}, nil
}

// runTraced measures the per-layer metrics. It alternates untraced and
// traced repetitions of two instances in one process, so the traced
// ones have a base to report their overhead against.
func runTraced(w *workload, seed uint64, sz sizing, expected map[string]expectation, res *result, ops *opCount) (metricSet, error) {
	tr := &tracer{}
	dir, err := scratchDir(w.name + ".profiles")
	if err != nil {
		return nil, err
	}
	prof := &cpuProfile{dir: dir}

	repeat := func(i instance, parent int, name, key string) (r repetition) {
		tr.within(parent, name, key, func(id int) { r = i.repeat(tr, id) })
		ops.count(r)
		return r
	}
	var plain, inst instance
	tr.within(0, "bench.setup", "", func(setup int) {
		if plain, err = w.start(seed, false, expected); err != nil {
			return
		}
		if inst, err = w.start(seed, true, expected); err != nil {
			err = errors.Join(err, plain.close())
			return
		}
		repeat(plain, setup, "bench.warmup", "plain")
		repeat(inst, setup, "bench.warmup", "traced")
	})
	if err != nil {
		return nil, err
	}

	var plainReps, tracedReps []repetition
	counted := inst.counts()
	cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for n := 0; n < sz.pairs(); n++ {
		runtime.GC()
		plainReps = append(plainReps, repeat(plain, 0, "bench.rep", "plain"))

		runtime.GC()
		if err := prof.start(); err != nil {
			return nil, err
		}
		tracedReps = append(tracedReps, repeat(inst, 0, "bench.rep", "traced"))
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	cpu1, gc1 := cpuSeconds(), gcCPUSeconds()
	counted = inst.counts().Sub(counted)
	if _, err := agree(append(plainReps, tracedReps...)); err != nil {
		return nil, err
	}

	m := metricSet{}
	layerCounts(m, counted, tracedReps)
	if w.jobs > 0 {
		jobSpans(m, tracedReps)
	}
	shares, err := prof.shares()
	if err != nil {
		return nil, err
	}
	for _, layer := range []string{"core", "engine", "search", "por", "dist", "program", "runtime", "other"} {
		m[layer+".cpu_share"] = shares[layer]
	}
	m["runtime.cpu_s"] = cpu1 - cpu0
	m["runtime.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["bench.trace_overhead_ratio"] = ratio(median(walls(tracedReps)), median(walls(plainReps)))
	q1, q3 := quartiles(walls(plainReps))
	m["bench.rep_spread_ratio"] = ratio(q3-q1, median(walls(plainReps)))

	penv := &probeEnv{tr: tr, seed: seed, check: w.seeded(seed), budget: sz.probe}
	for _, p := range w.probes {
		if err := p(penv, m); err != nil {
			return nil, err
		}
	}

	tr.within(0, "bench.canaries", "", func(id int) { ops.canaries(tr, id, w.canaries, expected) })
	if err := errors.Join(plain.close(), inst.close()); err != nil {
		return nil, err
	}
	res.Env.Setups, res.Env.Reps = 1, len(tracedReps)
	res.RepWalls = walls(tracedReps)
	return m, tr.write(filepath.Join(outDir, w.name+".trace.json"))
}
