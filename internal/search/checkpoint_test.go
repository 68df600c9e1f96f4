package search_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fairmc/internal/obs"
	"fairmc/internal/por"
	"fairmc/internal/search"
	"fairmc/internal/state"
	"fairmc/progs"
)

// TestOptionsFieldsClassified: every field of search.Options is either
// runtime-only — json:"-" and cleared by Spec — or travelling: it
// survives Spec's JSON round trip, and setting it changes OptionsHash
// unless it is operational. A field in neither list fails, so a new
// option cannot reach a plan, a ledger or a worker unclassified.
func TestOptionsFieldsClassified(t *testing.T) {
	runtimeOnly := search.Options{
		Parallelism: 2, TimeLimit: time.Second, Monitor: state.NewCoverage(), CheckpointPath: "ckpt",
		Resume: &search.Checkpoint{}, Stop: make(chan struct{}), Metrics: obs.NewMetrics(), EventSink: &obs.Recorder{},
	}
	operational := map[string]bool{
		"ProgramName": true, "MaxExecutions": true, "DivergenceRetries": true,
		"ConfirmRuns": true, "Watchdog": true, "CheckpointInterval": true,
	}
	semantic := map[string]bool{
		"Fair": true, "FairK": true, "ContextBound": true, "DepthBound": true, "RandomTail": true,
		"RandomWalk": true, "PCT": true, "PCTDepth": true, "MaxSteps": true, "MemModel": true,
		"TSOBufCap": true, "Seed": true, "StatefulPrune": true, "DPOR": true, "SleepSets": true,
		"DisableConformance": true, "ContinueAfterViolation": true, "ContinueAfterDivergence": true,
		"RecordTrace": true,
	}
	spec := reflect.ValueOf(runtimeOnly.Spec())
	typ := reflect.TypeOf(search.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, tagged := f.Tag.Lookup("json")
		if !tagged {
			t.Errorf("%s has no json tag: classify it as runtime-only (json:\"-\", cleared by Spec) or travelling", f.Name)
			continue
		}
		if tag == "-" {
			if reflect.ValueOf(runtimeOnly).Field(i).IsZero() {
				t.Errorf("%s is runtime-only but this test does not set it", f.Name)
			} else if !spec.Field(i).IsZero() {
				t.Errorf("%s is runtime-only (json:\"-\") but Spec keeps it", f.Name)
			}
			continue
		}
		if operational[f.Name] == semantic[f.Name] {
			t.Errorf("%s travels but is listed as neither semantic nor operational (or as both)", f.Name)
			continue
		}
		var o search.Options
		if f.Name == "TSOBufCap" {
			o.MemModel = "tso" // the buffer bound means nothing under SC
		}
		base := search.OptionsHash(&o)
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch {
		case f.Name == "MemModel":
			v.SetString("tso")
		case v.Kind() == reflect.Bool:
			v.SetBool(true)
		case v.Kind() == reflect.String:
			v.SetString("x")
		case v.CanInt():
			v.SetInt(7)
		case v.CanUint():
			v.SetUint(7)
		default:
			t.Fatalf("%s: no sample value for kind %s", f.Name, v.Kind())
		}
		data, err := json.Marshal(o.Spec())
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		var back search.Options
		if err := json.Unmarshal(data, &back); err != nil || back != o {
			t.Errorf("%s does not survive the JSON round trip (%s): %+v, want %+v (%v)", f.Name, data, back, o, err)
		}
		if changed := search.OptionsHash(&o) != base; changed == operational[f.Name] {
			t.Errorf("%s: setting it changes OptionsHash = %v, want %v", f.Name, changed, !operational[f.Name])
		}
	}
	sc := search.Options{MemModel: "sc", TSOBufCap: 4}
	if search.OptionsHash(&sc) != search.OptionsHash(&search.Options{}) {
		t.Errorf("an SC search hashes differently when it names its model or a store-buffer bound")
	}
}

// fuzzSearches are the searches FuzzCheckpoint's seed corpus is written
// by, one per shape of the one checkpoint position, the driver's
// frontier: the one prefix of a -p 1 fair DFS (its whole tree, cut by
// its budget, so the rest of it, with the alternatives its steps have
// left), the re-planned ranges of a random walk (no shards stored), a
// -p 2 frontier
// of prefixes and a DPOR frontier of units with its dedup traces. Each
// stops on its execution budget, so its checkpoint is resumable.
var fuzzSearches = []search.Options{
	{ProgramName: "ticketlock", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 3},
	{ProgramName: "peterson", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 3, RandomWalk: true, Seed: 7},
	{ProgramName: "philosophers-2", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 3, Parallelism: 2},
	{ProgramName: "boundedbuffer", ContextBound: -1, MaxSteps: 5000, MaxExecutions: 3, DPOR: true},
}

// resumeOptions are opts resuming ck for five executions.
func resumeOptions(opts search.Options, ck *search.Checkpoint) search.Options {
	opts.MaxExecutions = 5
	opts.CheckpointPath = ""
	opts.Resume = ck
	return opts
}

// seedCheckpoint runs opts (one of fuzzSearches) to its budget with a
// checkpoint file in dir and returns the file's path.
func seedCheckpoint(tb testing.TB, dir string, opts search.Options) string {
	tb.Helper()
	p, _ := progs.Lookup(opts.ProgramName)
	opts.CheckpointPath = filepath.Join(dir, opts.ProgramName+".ckpt")
	if rep := search.Explore(p.Body, opts); !rep.ExecBounded {
		tb.Fatalf("%s: seed search did not stop on its budget: %+v", opts.ProgramName, rep)
	}
	return opts.CheckpointPath
}

// TestResumeValidationPosition: Validate refuses a position the search
// could not restore — frontier shards not numbered on from the merged
// count or of another strategy's kind, a prefix listing alternatives
// left at a step it does not have or without their ops, a negative,
// unaccounted-for or index-overflowing merged count, negative counters — where
// resuming it would index out of range, wait forever for a shard or
// spin through a negative execution index.
func TestResumeValidationPosition(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, len(fuzzSearches))
	for i, opts := range fuzzSearches {
		paths[i] = seedCheckpoint(t, dir, opts)
	}
	seq, stride, prefix, dpor := 0, 1, 2, 3
	for _, tc := range []struct {
		name    string
		search  int
		corrupt func(ck *search.Checkpoint)
	}{
		{"seq-shard-index", seq, func(ck *search.Checkpoint) { ck.Frontier.Shards[0].Index-- }},
		{"prefix-later-ops", seq, func(ck *search.Checkpoint) {
			l := &ck.Frontier.Shards[0].Prefix.Later[0]
			l.Ops = l.Ops[1:]
		}},
		{"prefix-later-step", seq, func(ck *search.Checkpoint) {
			pfx := ck.Frontier.Shards[0].Prefix
			pfx.Later[0].Step = len(pfx.Sched)
		}},
		{"negative-executions", stride, func(ck *search.Checkpoint) { ck.Counters.Executions = -1 }},
		{"shard-index", prefix, func(ck *search.Checkpoint) { ck.Frontier.Shards[1].Index++ }},
		{"shard-kind", prefix, func(ck *search.Checkpoint) { ck.Frontier.Shards[0].Unit = dporUnit(paths[dpor]) }},
		{"unit-kind", dpor, func(ck *search.Checkpoint) {
			ck.Frontier.Shards[0].Unit, ck.Frontier.Shards[0].Prefix = nil, &search.SavedPrefix{}
		}},
		{"negative-merged", dpor, func(ck *search.Checkpoint) { ck.Frontier.Merged = -1 }},
		{"unaccounted-merged", dpor, func(ck *search.Checkpoint) { ck.Frontier.Merged = 1 << 40 }},
		{"unaccounted-merged-prefix", prefix, func(ck *search.Checkpoint) { renumber(ck, 1<<40) }},
		{"unaccounted-merged-seq", seq, func(ck *search.Checkpoint) { renumber(ck, 1<<40) }},
		{"overflowing-merged", dpor, func(ck *search.Checkpoint) {
			ck.Counters.Executions = math.MaxInt64
			renumber(ck, math.MaxInt-len(ck.Frontier.Shards)+1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := search.LoadCheckpoint(paths[tc.search])
			if err != nil {
				t.Fatal(err)
			}
			opts := resumeOptions(fuzzSearches[tc.search], ck)
			if err := opts.Validate(); err != nil {
				t.Fatalf("the uncorrupted checkpoint does not validate: %v", err)
			}
			tc.corrupt(ck)
			if err := opts.Validate(); err == nil {
				t.Fatal("the corrupted checkpoint validates")
			}
		})
	}
}

// renumber moves ck's frontier to merged shards merged so far, numbering
// the unmerged ones on from there.
func renumber(ck *search.Checkpoint, merged int) {
	ck.Frontier.Merged = merged
	for i := range ck.Frontier.Shards {
		ck.Frontier.Shards[i].Index = merged + i
	}
}

// dporUnit is the first pending unit of the DPOR checkpoint at path.
func dporUnit(path string) *por.Unit {
	ck, err := search.LoadCheckpoint(path)
	if err != nil || ck.Frontier == nil || len(ck.Frontier.Shards) == 0 {
		panic(fmt.Sprintf("no pending DPOR unit in %s: %v", path, err))
	}
	return ck.Frontier.Shards[0].Unit
}

// FuzzCheckpoint holds the checkpoint decoder and Validate to their
// contract: decoding and validating any bytes never panics, and a
// checkpoint that validates resumes a five-execution search of its
// program without panicking (a crashing shard would be a WorkerFailure
// in the report; the merge and the sequential searcher run unguarded).
// One seed claims 2^40 executions and merged shards: it validates, and
// its resume must not hold a slot for every merged shard.
func FuzzCheckpoint(f *testing.F) {
	dir := f.TempDir()
	for _, opts := range fuzzSearches {
		path := seedCheckpoint(f, dir, opts)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data) // validates: TestResumeValidationPosition
		if opts.DPOR {
			ck, err := search.LoadCheckpoint(path)
			if err != nil {
				f.Fatal(err)
			}
			ck.Counters.Executions = 1 << 40
			renumber(ck, 1<<40)
			ro := resumeOptions(opts, ck)
			if err := ro.Validate(); err != nil {
				f.Fatalf("the 2^40-merged seed does not validate: %v", err)
			}
			data, err := json.Marshal(ck)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck := &search.Checkpoint{}
		if json.Unmarshal(data, ck) != nil {
			return
		}
		for _, opts := range fuzzSearches {
			opts = resumeOptions(opts, ck)
			if opts.Validate() != nil {
				continue
			}
			p, _ := progs.Lookup(opts.ProgramName)
			search.Explore(p.Body, opts)
		}
	})
}
