package search_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairmc/internal/ledger"
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
		Stop: make(chan struct{}), Metrics: obs.NewMetrics(), EventSink: &obs.Recorder{},
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

// TestDPORHashNamesTheEnumeration: DPOR's enumeration changed when every
// unit came to carry sleep sets and a yield to wake them, and its units'
// encoding when they came to travel in por's binary codec, so a plan from
// before either hashes apart and is refused, never folded; -sleepsets
// names the same DPOR search. The literals are the OptionsHash the builds
// before gave {DPOR, ContextBound: -1, MaxSteps: 5000}: without and with
// SleepSets before the first change, and before the second. A search
// that is not DPOR carries no unit, and hashes as it did.
func TestDPORHashNamesTheEnumeration(t *testing.T) {
	const before, beforeSleep, beforeCodec = 0x80a1bf4176e68929, 0x2c300956b243ab35, 0x9aee505b7cf951bc
	fair := search.Options{Fair: true, ContextBound: 2, MaxSteps: 5000, ProgramName: "racy-increment"}
	random := search.Options{RandomWalk: true, Seed: 7, MaxSteps: 4000, MaxExecutions: 100, ProgramName: "x"}
	if hf, hr := search.OptionsHash(&fair), search.OptionsHash(&random); hf != 0x90a69f6ef72ee301 || hr != 0x445e1b2d759e9cd6 {
		t.Fatalf("OptionsHash of a fair DFS = %#x, of a random walk = %#x: want them unchanged", hf, hr)
	}
	o := search.Options{DPOR: true, ContextBound: -1, MaxSteps: 5000, ProgramName: "racy-increment"}
	sleep := o
	sleep.SleepSets = true
	h := search.OptionsHash(&o)
	if h == before || h == beforeSleep || h == beforeCodec {
		t.Fatalf("OptionsHash = %#x, as before the enumeration changed", h)
	}
	if hs := search.OptionsHash(&sleep); hs != h {
		t.Fatalf("OptionsHash with SleepSets = %#x, without %#x: want one DPOR search", hs, h)
	}
	plan, err := search.PlanShards(racyIncrement, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &search.PlanRec{OptionsHash: plan.OptionsHash, Plan: plan, Spec: &o}
	if err := sleep.Matches(rec); err != nil {
		t.Fatalf("a -sleepsets rerun of a DPOR checkpoint refused: %v", err)
	}
	for _, old := range []struct {
		spec search.Options
		hash uint64
	}{{o, before}, {sleep, beforeSleep}, {o, beforeCodec}} {
		stale := *plan
		stale.OptionsHash = old.hash
		rec := &search.PlanRec{OptionsHash: old.hash, Plan: &stale, Spec: &old.spec}
		if err := o.Matches(rec); err == nil || !strings.Contains(err.Error(), "written by another version") {
			t.Fatalf("a plan of the old hash %#x: Matches = %v, want it refused as another version's", old.hash, err)
		}
	}
}

// fuzzSearches are the searches FuzzCheckpoint's seed corpus is written
// by, one per shape of what a checkpoint directory records: a -p 1 fair
// DFS paused after every execution (each report naming the rest of the
// tree, with the alternatives its steps have left), a random walk's
// ranges, a -p 2 plan of prefixes (a budget its first subtrees fit in)
// and a DPOR plan its unit reports regrow. Each stops on its execution
// budget, so its directory resumes.
var fuzzSearches = []search.Options{
	{ProgramName: "ticketlock", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 3, CheckpointInterval: time.Nanosecond},
	{ProgramName: "peterson", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 3, RandomWalk: true, Seed: 7},
	{ProgramName: "spinloop", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 60, Parallelism: 2},
	{ProgramName: "boundedbuffer", ContextBound: -1, MaxSteps: 5000, MaxExecutions: 3, DPOR: true},
}

// seedCheckpoint runs opts (one of fuzzSearches) to its budget with a
// checkpoint directory under dir and returns the directory.
func seedCheckpoint(tb testing.TB, dir string, opts search.Options) string {
	tb.Helper()
	p, _ := progs.Lookup(opts.ProgramName)
	opts.CheckpointPath = filepath.Join(dir, opts.ProgramName)
	if rep := search.Explore(p.Body, opts); !rep.ExecBounded || rep.CheckpointError != "" {
		tb.Fatalf("%s: seed search did not stop on its budget with its checkpoint: %+v", opts.ProgramName, rep)
	}
	return opts.CheckpointPath
}

// records decodes the first plan record and every decision in the
// checkpoint directory dir.
func records(tb testing.TB, dir string) (*search.PlanRec, []search.ShardDoneRec) {
	tb.Helper()
	led, rec, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer led.Close()
	var plan *search.PlanRec
	var done []search.ShardDoneRec
	for _, r := range rec.Records {
		switch {
		case r.Type == search.RecPlan && plan == nil:
			plan = &search.PlanRec{}
			err = json.Unmarshal(r.Data, plan)
		case r.Type == search.RecShardDone:
			done = append(done, search.ShardDoneRec{})
			err = json.Unmarshal(r.Data, &done[len(done)-1])
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if plan == nil || len(done) == 0 {
		tb.Fatalf("%s holds %v as its plan and %d decisions", dir, plan, len(done))
	}
	return plan, done
}

// TestResumeValidationPosition: the fold refuses a record its search
// could not have written — a plan whose shards are not numbered from 0
// or are of another strategy's kind, a paused shard's rest listing
// alternatives left at a step it does not have or without their ops, a
// decision with negative counts or for a shard the plan does not hold —
// where folding it would index out of range, wait forever for a shard or
// spin through a negative execution index.
func TestResumeValidationPosition(t *testing.T) {
	dir := t.TempDir()
	dirs := make([]string, len(fuzzSearches))
	for i, opts := range fuzzSearches {
		dirs[i] = seedCheckpoint(t, dir, opts)
	}
	seq, stride, prefix, dpor := 0, 1, 2, 3
	for _, tc := range []struct {
		name    string
		search  int
		corrupt func(plan *search.PlanRec, done []search.ShardDoneRec)
	}{
		{"seq-shard-index", seq, func(p *search.PlanRec, _ []search.ShardDoneRec) { p.Plan.Shards[0].Index-- }},
		{"prefix-later-ops", seq, func(_ *search.PlanRec, d []search.ShardDoneRec) {
			l := &d[0].Report.Rest.Prefix.Later[0]
			l.Ops = l.Ops[1:]
		}},
		{"prefix-later-step", seq, func(_ *search.PlanRec, d []search.ShardDoneRec) {
			pfx := d[0].Report.Rest.Prefix
			pfx.Later[0].Step = len(pfx.Sched)
		}},
		{"negative-executions", stride, func(_ *search.PlanRec, d []search.ShardDoneRec) { d[0].Report.Executions = -1 }},
		{"shard-index", prefix, func(p *search.PlanRec, _ []search.ShardDoneRec) { p.Plan.Shards[1].Index++ }},
		{"shard-kind", prefix, func(p *search.PlanRec, _ []search.ShardDoneRec) { p.Plan.Shards[0].Unit = &por.Unit{} }},
		{"unit-kind", dpor, func(p *search.PlanRec, _ []search.ShardDoneRec) {
			p.Plan.Shards[0].Unit, p.Plan.Shards[0].Prefix = nil, &search.SavedPrefix{}
		}},
		{"negative-merged", dpor, func(_ *search.PlanRec, d []search.ShardDoneRec) { d[0].Shard = -1 }},
		{"unaccounted-merged", dpor, func(_ *search.PlanRec, d []search.ShardDoneRec) { d[len(d)-1].Shard = 1 << 40 }},
		{"unaccounted-merged-prefix", prefix, func(_ *search.PlanRec, d []search.ShardDoneRec) { d[0].Shard = 1 << 40 }},
		{"unaccounted-merged-seq", seq, func(_ *search.PlanRec, d []search.ShardDoneRec) { d[0].Shard = 1 << 40 }},
		{"overflowing-merged", dpor, func(_ *search.PlanRec, d []search.ShardDoneRec) { d[0].Shard = math.MaxInt }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := fuzzSearches[tc.search]
			plan, done := records(t, dirs[tc.search])
			if err := search.FoldCheck(opts, plan, done); err != nil {
				t.Fatalf("the uncorrupted records do not fold: %v", err)
			}
			plan, done = records(t, dirs[tc.search])
			tc.corrupt(plan, done)
			if err := search.FoldCheck(opts, plan, done); err == nil {
				t.Fatal("the corrupted records fold")
			}
		})
	}
}

// segMagic is the header internal/ledger starts every segment with.
const segMagic = "FMCWAL01"

// segment is the first segment of the ledger in dir.
func segment(tb testing.TB, dir string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000000.seg"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// openSegments writes segs as the segments of a ledger in a new
// directory and opens it; it returns the directory and what recovery
// found there.
func openSegments(t *testing.T, segs ...[]byte) (string, *ledger.Recovery) {
	t.Helper()
	dir := t.TempDir()
	for i, s := range segs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", i)), s, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	led, rec, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatalf("opening the ledger: %v", err)
	}
	led.Close()
	return dir, rec
}

// FuzzCheckpoint holds a checkpoint directory's ledger to its contract,
// for any bytes as its segment: opening and folding never panic; a tail
// torn at any byte recovers to records the whole segment holds; a
// flipped bit in a segment that opens clean quarantines it once a later
// segment seals it; and a directory that opens resumes a five-execution
// search of the program its plan names without panicking (a crashing
// shard would be a WorkerFailure in the report; the merge and the
// sequential searcher run unguarded). The seeds are the segments real
// searches write; the fifth is a random walk's rerun under another
// budget, with the plan record its ranges were planned again at.
func FuzzCheckpoint(f *testing.F) {
	dir := f.TempDir()
	for i, opts := range fuzzSearches {
		f.Add(segment(f, seedCheckpoint(f, dir, opts)), uint(17*i))
	}
	rerun := fuzzSearches[1]
	rerun.MaxExecutions = 6
	rerun.CheckpointPath = filepath.Join(dir, rerun.ProgramName)
	p, _ := progs.Lookup(rerun.ProgramName)
	search.Explore(p.Body, rerun)
	f.Add(segment(f, rerun.CheckpointPath), uint(1000))
	f.Fuzz(func(t *testing.T, data []byte, at uint) {
		whole, rec := openSegments(t, data)
		torn, got := openSegments(t, data[:at%uint(len(data)+1)])
		have := map[string]int{}
		for _, r := range rec.Records {
			have[fmt.Sprint(r.Seq, r.Type, string(r.Data))]++
		}
		for _, r := range got.Records {
			k := fmt.Sprint(r.Seq, r.Type, string(r.Data))
			if have[k] == 0 {
				t.Fatalf("the torn segment recovers record %d (%s), which the whole one does not hold", r.Seq, r.Type)
			}
			have[k]--
		}
		if len(data) > 0 && len(rec.Quarantined) == 0 && rec.TornTails == 0 {
			flipped := append([]byte(nil), data...)
			pos := at / 8 % uint(len(data))
			flipped[pos] ^= 1 << (at % 8)
			if _, q := openSegments(t, flipped, []byte(segMagic)); len(q.Quarantined) != 1 {
				t.Fatalf("bit %d of byte %d flipped in a sealed segment: %d segments quarantined, want 1", at%8, pos, len(q.Quarantined))
			}
		}
		for _, d := range []string{whole, torn} {
			plan, err := search.ReadPlan(d)
			if err != nil || plan == nil {
				continue
			}
			for _, opts := range fuzzSearches {
				if opts.Matches(plan) == nil {
					p, _ := progs.Lookup(opts.ProgramName)
					opts.MaxExecutions, opts.CheckpointPath = 5, d
					search.Explore(p.Body, opts)
				}
			}
		}
	})
}

// TestCheckpointCrashMatrix freezes a checkpoint's ledger — the disk's
// view of kill -9 — after every append and every sync of three searches
// that checkpoint after every shard: a -p 1 fair DFS, a -p 2 random walk
// and a -p 2 DPOR search. Rerun over the directory it left, each one
// ends in the uninterrupted report.
func TestCheckpointCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	defer search.SetCheckpointHook(nil)
	for _, opts := range []search.Options{
		{ProgramName: "ticketlock", Fair: true, ContextBound: -1, MaxSteps: 10000, MaxExecutions: 30},
		{ProgramName: "bakery-2", Fair: true, RandomWalk: true, Seed: 3, MaxSteps: 10000, MaxExecutions: 300, Parallelism: 2},
		{ProgramName: "boundedbuffer", ContextBound: -1, MaxSteps: 5000, DPOR: true, MaxExecutions: 30, Parallelism: 2},
	} {
		p, _ := progs.Lookup(opts.ProgramName)
		want := normalize(search.Explore(p.Body, opts))
		opts.CheckpointInterval = time.Nanosecond
		events := 0
		search.SetCheckpointHook(func(string, *ledger.Ledger) { events++ })
		opts.CheckpointPath = t.TempDir()
		search.Explore(p.Body, opts)
		for k := 1; k <= events; k++ {
			n := 0
			search.SetCheckpointHook(func(_ string, l *ledger.Ledger) {
				if n++; n == k {
					l.Freeze()
				}
			})
			opts.CheckpointPath = t.TempDir()
			search.Explore(p.Body, opts)
			search.SetCheckpointHook(nil)
			if got := normalize(search.Explore(p.Body, opts)); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s frozen after checkpoint event %d of %d: the rerun differs from the uninterrupted run:\n%+v\nvs\n%+v",
					opts.ProgramName, k, events, want, got)
			}
		}
		t.Logf("%s: %d crash points", opts.ProgramName, events)
	}
}
