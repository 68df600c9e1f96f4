package search_test

import (
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

// TestOneDriverProperty: for generated programs (and the two hand-made
// fixtures, which have findings to stop on) the report is the same
// whichever way the schedule space is cut up — the sequential search,
// the driver at -p 1 and -p 4, and the shard path driven by hand with
// reports offered in shuffled order — for fair DFS, a seeded random
// walk, and DPOR with and without sleep sets.
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
	}{
		{"dfs", search.Options{Fair: true, ContextBound: -1, MaxSteps: 1 << 14}, false},
		{"random", search.Options{Fair: true, RandomWalk: true, MaxExecutions: 150, MaxSteps: 1 << 14, Seed: 11}, false},
		{"dpor", search.Options{ContextBound: -1, MaxSteps: 1 << 14, DPOR: true}, true},
		{"dpor+sleep", search.Options{ContextBound: -1, MaxSteps: 1 << 14, DPOR: true, SleepSets: true}, true},
	}
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
				for _, p := range []int{1, 4} {
					o := opts
					o.Parallelism = p
					if got := normalize(search.Explore(sub.prog, o)); !reflect.DeepEqual(ref, got) {
						t.Fatalf("%s %s cont=%v: -p %d differs from the sequential search:\n%+v\nvs\n%+v",
							sub.name, st.name, cont, p, ref, got)
					}
				}
				got := normalize(runPlanShuffled(t, sub.prog, opts, 4, 17))
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s %s cont=%v: hand-driven shards differ from the sequential search:\n%+v\nvs\n%+v",
						sub.name, st.name, cont, ref, got)
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
// mid-run interrupts the search with a checkpoint whose frontier a
// resume continues to exactly the uninterrupted report.
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
	path := filepath.Join(t.TempDir(), "search.ckpt")
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

	ck, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	if ck.Version != search.CheckpointVersion || ck.Frontier == nil || ck.Done {
		t.Fatalf("checkpoint = version %d frontier %v done %v, want a resumable v%d frontier",
			ck.Version, ck.Frontier, ck.Done, search.CheckpointVersion)
	}
	second := opts
	second.Resume = ck
	rep2 := search.Explore(racyIncrement, second)
	if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v", baseline, rep2)
	}
}

// TestDporStopMidMergeResumes: Stop closing in the middle of a DPOR
// merge — over a thousand units consumed, workers mid-unit, reports
// waiting their turn — leaves a checkpoint whose dedup set is written as
// the trie's leaves; the search resumed from it spawns and prunes
// exactly what the uninterrupted one does. Stop closes once 2 500 units
// have started: how far the merge trails that depends on how the workers
// were scheduled (a few units when idle, over 500 seen under load), so
// the bound asserted leaves that much room.
func TestDporStopMidMergeResumes(t *testing.T) {
	p, ok := progs.Lookup("boundedbuffer")
	if !ok {
		t.Fatal("boundedbuffer is not registered")
	}
	opts := search.Options{
		ContextBound:  -1,
		MaxSteps:      5000,
		DPOR:          true,
		MaxExecutions: 3000,
		Parallelism:   4,
		ProgramName:   "boundedbuffer",
	}
	baseline := search.Explore(p.Body, opts)
	if !baseline.ExecBounded || baseline.Executions != opts.MaxExecutions {
		t.Fatalf("baseline did not spend its budget: %+v", baseline)
	}

	stopping, stop := stopAfter(2500, p.Body)
	path := filepath.Join(t.TempDir(), "search.ckpt")
	first := opts
	first.CheckpointPath = path
	first.Stop = stop
	rep1 := search.Explore(stopping, first)
	if !rep1.Interrupted || rep1.Executions < 1000 || rep1.Executions >= opts.MaxExecutions {
		t.Fatalf("first phase: interrupted=%v after %d executions, want a stop between 1000 and %d",
			rep1.Interrupted, rep1.Executions, opts.MaxExecutions)
	}

	ck, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	if ck.Version != search.CheckpointVersion || ck.Frontier == nil || ck.Done || len(ck.Frontier.Traces) == 0 {
		t.Fatalf("checkpoint = version %d frontier %v done %v, want a resumable v%d frontier with traces",
			ck.Version, ck.Frontier, ck.Done, search.CheckpointVersion)
	}
	for _, tr := range ck.Frontier.Traces {
		if len(tr.Path) == 0 {
			t.Fatalf("trace record %+v: want a leaf path", tr)
		}
	}
	second := opts
	second.Resume = ck
	rep2 := search.Explore(p.Body, second)
	if !reflect.DeepEqual(normalize(baseline), normalize(rep2)) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n%+v\nvs\n%+v", baseline, rep2)
	}
}

// TestOldCheckpointVersionRejected: exactly one format version is
// readable; a version-6 file — a DPOR frontier whose trace records keep
// a unit's prefix and continuation apart — is refused with a message
// that says so.
func TestOldCheckpointVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v6.ckpt")
	v6 := `{"version":6,"meta":{"strategy":"dfs","seed":0,"optionsHash":1,"parallelism":4},` +
		`"counters":{"executions":10},"frontier":{"merged":1,"allExhausted":true,"traces":[{"path":[0],"cont":[1]}]}}`
	if err := os.WriteFile(path, []byte(v6), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := search.LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "format version 6, this build reads version 7") {
		t.Fatalf("LoadCheckpoint(v6) error = %v, want the version message", err)
	}
	// A decoded old checkpoint handed straight to Validate is refused too.
	opts := search.Options{Fair: true, ContextBound: -1, Parallelism: 4, Resume: &search.Checkpoint{Version: 6}}
	if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), "format version 6") {
		t.Fatalf("Validate(v6 resume) error = %v, want the version message", err)
	}
}
