package search_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/fuzzprog"
	"fairmc/internal/rng"
	"fairmc/internal/search"
	"fairmc/progs"
)

// runPlanShuffled drives the shard path by hand — PlanShards, RunShard,
// ShardMerger — offering the reports of every round in a seeded random
// order. A round runs every shard planned so far and not yet offered,
// so a DPOR plan that grows as units merge is followed to its end.
func runPlanShuffled(t *testing.T, prog func(*engine.T), opts search.Options, refP int, seed uint64) *search.Report {
	t.Helper()
	plan, err := search.PlanShards(prog, opts, refP)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	m := search.NewShardMerger(opts, plan)
	r := rng.New(seed)
	offered := 0
	for !m.Done() {
		if offered == len(plan.Shards) {
			t.Fatalf("merger not done with all %d shards offered", offered)
		}
		round := plan.Shards[offered:]
		reports := make([]*search.Report, len(round))
		for i, sh := range round {
			reports[i] = search.RunShard(prog, opts, sh, nil)
		}
		order := make([]int, len(round))
		for i := range order {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		for _, i := range order {
			m.Offer(offered+i, reports[i])
		}
		offered += len(round)
	}
	// A merged unit is released: nothing reads it again, and a search
	// must not hold every schedule it ever ran.
	for i := 0; i < m.Merged(); i++ {
		if u := plan.Shards[i].Unit; u != nil && (u.Path != nil || u.Sched != nil || u.Digs != nil || u.Sleep != nil) {
			t.Fatalf("merged shard %d still holds its unit: %+v", i, u)
		}
	}
	return m.Finish(0, nil)
}

// copyDir copies the files of directory from into to, as they are at
// this moment — the checkpoint a kill now would leave — and reports
// whether there was anything to copy.
func copyDir(from, to string) bool {
	files, _ := filepath.Glob(filepath.Join(from, "*"))
	if os.MkdirAll(to, 0o755) != nil {
		return false
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil || os.WriteFile(filepath.Join(to, filepath.Base(f)), data, 0o644) != nil {
			return false
		}
	}
	return len(files) > 0
}

// TestOneDriverProperty: for generated programs (and the two hand-made
// fixtures, which have findings to stop on) the report is the same
// whichever way the schedule space is cut up — the sequential search,
// the driver at -p 1 and -p 4, the shard path driven by hand with
// reports offered in shuffled order, and a checkpointed search (at the
// default interval and after every execution) run through, rerun over
// the directory a kill midway would leave, or stopped at half its
// executions and rerun — for fair DFS,
// a seeded random walk, and DPOR with and without sleep sets. A fair DFS
// with an execution budget is held to the sequential report at -p 1
// only (above it the budget is quantized to prefix shards).
func TestOneDriverProperty(t *testing.T) {
	type subject struct {
		name string
		prog func(*engine.T)
		spin bool // only fair-terminating: unfair strategies do not apply
		bug  bool // has a violation, so ContinueAfterViolation matters
	}
	subjects := []subject{{"racy", racyIncrement, false, true}, {"fig3", fig3, true, false}}
	cfg := fuzzprog.DefaultConfig()
	cfg.OpsPerThread = 3
	for seed := uint64(0); seed < 6; seed++ {
		c := cfg
		c.AllowSpin = seed%2 == 0
		subjects = append(subjects, subject{"fuzz-" + string(rune('0'+seed)), fuzzprog.Generate(c, seed), c.AllowSpin, false})
	}
	strategies := []struct {
		name   string
		opts   search.Options
		unfair bool
		serial bool // only the -p 1 paths are exact
	}{
		{"dfs", search.Options{Fair: true, ContextBound: -1, MaxSteps: 1 << 14}, false, false},
		{"dfs-budget", search.Options{Fair: true, ContextBound: -1, MaxSteps: 1 << 14, MaxExecutions: 40}, false, true},
		{"random", search.Options{Fair: true, RandomWalk: true, MaxExecutions: 150, MaxSteps: 1 << 14, Seed: 11}, false, false},
		{"dpor", search.Options{ContextBound: -1, MaxSteps: 1 << 14, DPOR: true}, true, false},
	}
	base := t.TempDir()
	ckpt, midway := filepath.Join(base, "ck"), filepath.Join(base, "mid")
	for _, sub := range subjects {
		conts := []bool{false}
		if sub.bug {
			conts = append(conts, true)
		}
		for _, st := range strategies {
			if st.unfair && sub.spin {
				continue
			}
			for _, cont := range conts {
				opts := st.opts
				opts.ContinueAfterViolation = cont
				ref := normalize(search.Explore(sub.prog, opts))
				differs := func(how string, got *search.Report) {
					t.Helper()
					if got = normalize(got); !reflect.DeepEqual(ref, got) {
						t.Fatalf("%s %s cont=%v: %s differs from the sequential search:\n%+v\nvs\n%+v",
							sub.name, st.name, cont, how, ref, got)
					}
				}
				ps := []int{1, 4}
				if st.serial {
					ps = ps[:1]
				}
				for _, p := range ps {
					o := opts
					o.Parallelism = p
					differs(fmt.Sprintf("-p %d", p), search.Explore(sub.prog, o))
				}
				if !st.serial {
					differs("hand-driven shards", runPlanShuffled(t, sub.prog, opts, 4, 17))
				}

				// A 1ns interval makes a checkpoint due after every
				// execution: a -p 1 systematic search pauses each shard it
				// runs there, its report naming the rest, which the merge
				// splices into the plan. The directory as it is when the run
				// is halfway through is the one a kill would leave:
				// rerunning over it also gives ref.
				for _, iv := range []time.Duration{0, time.Nanosecond} {
					how := fmt.Sprintf("checkpointed every %v", iv)
					o := opts
					o.CheckpointPath, o.CheckpointInterval = ckpt, iv
					os.RemoveAll(ckpt)
					os.RemoveAll(midway)
					var copied bool
					var runs atomic.Int64
					differs(how, search.Explore(func(t *engine.T) {
						if runs.Add(1) == ref.Executions/2+1 {
							copied = copyDir(ckpt, midway)
						}
						sub.prog(t)
					}, o))
					if copied {
						r := o
						r.CheckpointPath = midway
						differs(how+", killed midway and rerun", search.Explore(sub.prog, r))
					}
					if ref.Executions < 2 {
						continue
					}
					half := opts
					half.MaxExecutions = ref.Executions / 2
					want := normalize(search.Explore(sub.prog, half))
					half.CheckpointPath, half.CheckpointInterval = ckpt, iv
					os.RemoveAll(ckpt)
					if got := normalize(search.Explore(sub.prog, half)); !reflect.DeepEqual(want, got) {
						t.Fatalf("%s %s cont=%v: %s, at half its executions, differs from the sequential search:\n%+v\nvs\n%+v",
							sub.name, st.name, cont, how, want, got)
					}
					differs(how+", stopped at half its executions and rerun", search.Explore(sub.prog, o))
				}
			}
		}
	}
}

// TestParallelRandomWalkTimeLimitOnly: a parallel random walk with no
// execution budget has no plan to finish — range shards are planned as
// the merge advances — and ends, resumably, when the clock strikes.
func TestParallelRandomWalkTimeLimitOnly(t *testing.T) {
	rep := search.Explore(racyIncrement, search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxSteps:               1000,
		Seed:                   3,
		Parallelism:            4,
		TimeLimit:              150 * time.Millisecond,
		ContinueAfterViolation: true,
	})
	if !rep.TimedOut || rep.ExecBounded || rep.Exhausted {
		t.Fatalf("stop flags: %+v", rep)
	}
	if rep.Executions == 0 || rep.Violations == 0 {
		t.Fatalf("walk made no progress before the deadline: %+v", rep)
	}
}

// stopAfter wraps prog so that its nth execution to start closes the
// returned Stop channel.
func stopAfter(n int64, prog func(*engine.T)) (func(*engine.T), chan struct{}) {
	stop := make(chan struct{})
	var started atomic.Int64
	var once sync.Once
	return func(t *engine.T) {
		if started.Add(1) >= n {
			once.Do(func() { close(stop) })
		}
		prog(t)
	}, stop
}

// TestStrideStopMidShardResumes: Stop closing while range shards are
// mid-run interrupts the search, leaving a checkpoint directory with
// the walk's plan, and a rerun over it continues to exactly the
// uninterrupted report.
func TestStrideStopMidShardResumes(t *testing.T) {
	opts := search.Options{
		Fair:                   true,
		RandomWalk:             true,
		MaxExecutions:          400,
		MaxSteps:               1000,
		Seed:                   5,
		Parallelism:            4,
		ContinueAfterViolation: true,
		ProgramName:            "racy-increment",
	}
	baseline := search.Explore(racyIncrement, opts)

	// The 50th execution to start closes Stop: with 32-execution shards
	// on four workers every worker is inside a shard by then.
	stopping, stop := stopAfter(50, racyIncrement)
	path := t.TempDir()
	first := opts
	first.CheckpointPath = path
	first.Stop = stop
	rep1 := search.Explore(stopping, first)
	if !rep1.Interrupted || rep1.ExecBounded {
		t.Fatalf("first phase was not interrupted: %+v", rep1)
	}
	if rep1.Executions >= opts.MaxExecutions {
		t.Fatalf("first phase ran all %d executions before Stop", rep1.Executions)
	}

	rec, err := search.ReadPlan(path)
	if err != nil || rec == nil || rec.Plan.Strategy != "random" {
		t.Fatalf("the checkpoint holds no plan of the walk: %+v (%v)", rec, err)
	}
	second := opts
	second.CheckpointPath = path
	rep2 := search.Explore(racyIncrement, second)
	if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v", baseline, rep2)
	}
}

// TestDporStopMidMergeResumes: Stop closing in the middle of a DPOR
// merge — over a thousand units consumed, workers mid-unit, reports
// waiting their turn — leaves a checkpoint directory with a decision for
// every unit the merge took; the search rerun over it regrows the plan
// from them and spawns and prunes exactly what the uninterrupted one
// does. Stop closes once 2 500 units have started: how far the merge
// trails that depends on how the workers were scheduled (a few units
// when idle, over 500 seen under load), so the bound asserted leaves
// that much room. readerswriters takes 6 985 units to exhaust, so the
// budget of 3 000 cuts it.
func TestDporStopMidMergeResumes(t *testing.T) {
	p, ok := progs.Lookup("readerswriters")
	if !ok {
		t.Fatal("readerswriters is not registered")
	}
	opts := search.Options{
		ContextBound:  -1,
		MaxSteps:      5000,
		DPOR:          true,
		MaxExecutions: 3000,
		Parallelism:   4,
		ProgramName:   "readerswriters",
	}
	baseline := search.Explore(p.Body, opts)
	if !baseline.ExecBounded || baseline.Executions != opts.MaxExecutions {
		t.Fatalf("baseline did not spend its budget: %+v", baseline)
	}

	stopping, stop := stopAfter(2500, p.Body)
	path := t.TempDir()
	first := opts
	first.CheckpointPath = path
	first.Stop = stop
	rep1 := search.Explore(stopping, first)
	if !rep1.Interrupted || rep1.Executions < 1000 || rep1.Executions >= opts.MaxExecutions {
		t.Fatalf("first phase: interrupted=%v after %d executions, want a stop between 1000 and %d",
			rep1.Interrupted, rep1.Executions, opts.MaxExecutions)
	}

	if _, done := records(t, path); int64(len(done)) < rep1.Executions {
		t.Fatalf("the checkpoint records %d decisions for %d merged units", len(done), rep1.Executions)
	}
	second := opts
	second.CheckpointPath = path
	rep2 := search.Explore(p.Body, second)
	if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v", baseline, rep2)
	}
}

// TestOldCheckpointVersionRejected: a checkpoint is a directory of
// ledger records; a checkpoint file of the JSON format this build no
// longer reads is refused — its name cannot be a directory — and left as
// it is, and a search pointed at it runs unrecorded and says why.
func TestOldCheckpointVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v8.ckpt")
	v8 := `{"version":8,"meta":{"strategy":"dfs","seed":0,"optionsHash":1,"parallelism":1},` +
		`"counters":{"executions":10},"frontier":{"merged":1,"allExhausted":true}}`
	if err := os.WriteFile(path, []byte(v8), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := search.ReadPlan(path); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("ReadPlan(v8 file) error = %v, want it refused as no directory", err)
	}
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 1000, ProgramName: "fig3", CheckpointPath: path}
	if rep := search.Explore(fig3, opts); !rep.Exhausted || !strings.Contains(rep.CheckpointError, "not a directory") {
		t.Fatalf("a search over a v8 file: exhausted %v, checkpoint error %q", rep.Exhausted, rep.CheckpointError)
	}
	if data, _ := os.ReadFile(path); string(data) != v8 {
		t.Fatalf("the v8 file was rewritten: %s", data)
	}
}
