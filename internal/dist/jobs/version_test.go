package jobs

import (
	"encoding/json"
	"strings"
	"testing"

	"fairmc/internal/ledger"
	"fairmc/internal/search"
)

// Records the build before the DPOR unit codec wrote for a litmus-mp DPOR
// job ({DPOR, ContextBound: -1, MaxSteps: 5000}): its plan, whose root
// unit is a JSON object, and the report of that unit, whose DPOR payload
// is one too. This build decodes neither.
const (
	parentPlan = `{"job":"j1","optionsHash":11163948880166998460,"plan":{"strategy":"dfs","refParallelism":1,"opti` +
		`onsHash":11163948880166998460,"shards":[{"index":0,"unit":{}}]}}`
	parentShardDone = `{"job":"j1","optionsHash":11163948880166998460,"shard":0,"report":{"Executions":1,"TotalSteps":1` +
		`3,"MaxDepth":13,"Yields":1,"EdgeAdds":0,"EdgeErases":0,"FairBlocked":0,"BufferedStores":0,"Flush` +
		`es":0,"Fences":0,"Forwards":0,"NonTerminating":0,"PrunedVisited":0,"PrunedSleep":0,"Deadlocks":0` +
		`,"Violations":0,"Wedges":0,"Quarantined":0,"Skipped":0,"FirstBug":null,"FirstBugExecution":0,"Di` +
		`vergence":null,"DivergenceExecution":0,"FirstWedge":null,"FirstWedgeExecution":0,"Nondeterminism` +
		`":null,"BugReproducibility":null,"DivergenceReproducibility":null,"Exhausted":true,"TimedOut":fa` +
		`lse,"ExecBounded":false,"Interrupted":false,"WorkerFailures":null,"CheckpointError":"","Dpor":{"` +
		`contIdx":[0,0,0,0,0,0,0,0,0,0,0,0,0],"cont":[{"Tid":0,"Arg":-1},{"Tid":0,"Arg":-1},{"Tid":0,"Arg` +
		`":-1},{"Tid":1,"Arg":-1},{"Tid":1,"Arg":-1},{"Tid":1,"Arg":-1},{"Tid":1,"Arg":-1},{"Tid":2,"Arg"` +
		`:-1},{"Tid":2,"Arg":-1},{"Tid":2,"Arg":-1},{"Tid":2,"Arg":-1},{"Tid":0,"Arg":-1},{"Tid":0,"Arg":` +
		`-1}],"contDigs":[{"hash":8120556678299021527,"tid":0,"op":{"Kind":"start","Obj":-1,"Aux":0}},{"h` +
		`ash":12063022968358481106,"tid":0,"op":{"Kind":"spawn","Obj":-1,"Aux":1}},{"hash":40348998760972` +
		`83416,"tid":0,"op":{"Kind":"spawn","Obj":-1,"Aux":2}},{"hash":1102154621759126039,"tid":1,"op":{` +
		`"Kind":"start","Obj":-1,"Aux":0}},{"hash":15957625509087470598,"tid":1,"op":{"Kind":"wm.write","` +
		`Obj":0,"Aux":0}},{"hash":8726613737692725536,"tid":1,"op":{"Kind":"wm.write","Obj":0,"Aux":1}},{` +
		`"hash":12015092370528825811,"tid":1,"op":{"Kind":"wg.add","Obj":1,"Aux":-1}},{"hash":10697000580` +
		`759057531,"tid":2,"op":{"Kind":"start","Obj":-1,"Aux":0}},{"hash":4232105764390919768,"tid":2,"o` +
		`p":{"Kind":"wm.read","Obj":0,"Aux":1}},{"hash":4232107963414176190,"tid":2,"op":{"Kind":"wm.read` +
		`","Obj":0,"Aux":0}},{"hash":6743005647062164445,"tid":2,"op":{"Kind":"wg.add","Obj":1,"Aux":-1}}` +
		`,{"hash":4853704480997239563,"tid":0,"op":{"Kind":"wg.wait","Obj":1,"Aux":0}},{"hash":2846913694` +
		`546748857,"tid":0,"op":{"Kind":"wm.drain","Obj":0,"Aux":0}}],"nodes":[{"pos":2,"alts":[{"Tid":0,` +
		`"Arg":-1},{"Tid":1,"Arg":-1}],"moves":[{"Tid":0,"Arg":-1,"Info":{"Kind":"spawn","Obj":-1,"Aux":2` +
		`}},{"Tid":1,"Arg":-1,"Info":{"Kind":"start","Obj":-1,"Aux":0}}],"hash":4034899876097283416},{"po` +
		`s":1,"alts":[{"Tid":0,"Arg":-1}],"moves":[{"Tid":0,"Arg":-1,"Info":{"Kind":"spawn","Obj":-1,"Aux` +
		`":1}}],"hash":12063022968358481106},{"pos":0,"alts":[{"Tid":0,"Arg":-1}],"moves":[{"Tid":0,"Arg"` +
		`:-1,"Info":{"Kind":"start","Obj":-1,"Aux":0}}],"hash":8120556678299021527},{"pos":3,"alts":[{"Ti` +
		`d":1,"Arg":-1},{"Tid":2,"Arg":-1}],"moves":[{"Tid":1,"Arg":-1,"Info":{"Kind":"start","Obj":-1,"A` +
		`ux":0}},{"Tid":2,"Arg":-1,"Info":{"Kind":"start","Obj":-1,"Aux":0}}],"hash":1102154621759126039}` +
		`,{"pos":5,"alts":[{"Tid":1,"Arg":-1},{"Tid":2,"Arg":-1}],"moves":[{"Tid":1,"Arg":-1,"Info":{"Kin` +
		`d":"wm.write","Obj":0,"Aux":1}},{"Tid":2,"Arg":-1,"Info":{"Kind":"start","Obj":-1,"Aux":0}}],"ha` +
		`sh":8726613737692725536},{"pos":4,"alts":[{"Tid":1,"Arg":-1},{"Tid":2,"Arg":-1}],"moves":[{"Tid"` +
		`:1,"Arg":-1,"Info":{"Kind":"wm.write","Obj":0,"Aux":0}},{"Tid":2,"Arg":-1,"Info":{"Kind":"start"` +
		`,"Obj":-1,"Aux":0}}],"hash":15957625509087470598},{"pos":6,"alts":[{"Tid":1,"Arg":-1},{"Tid":2,"` +
		`Arg":-1}],"moves":[{"Tid":1,"Arg":-1,"Info":{"Kind":"wg.add","Obj":1,"Aux":-1}},{"Tid":2,"Arg":-` +
		`1,"Info":{"Kind":"start","Obj":-1,"Aux":0}}],"hash":12015092370528825811},{"pos":10,"alts":[{"Ti` +
		`d":2,"Arg":-1}],"moves":[{"Tid":2,"Arg":-1,"Info":{"Kind":"wg.add","Obj":1,"Aux":-1}}],"hash":67` +
		`43005647062164445},{"pos":9,"alts":[{"Tid":2,"Arg":-1}],"moves":[{"Tid":2,"Arg":-1,"Info":{"Kind` +
		`":"wm.read","Obj":0,"Aux":0}}],"hash":4232107963414176190},{"pos":8,"alts":[{"Tid":2,"Arg":-1}],` +
		`"moves":[{"Tid":2,"Arg":-1,"Info":{"Kind":"wm.read","Obj":0,"Aux":1}}],"hash":423210576439091976` +
		`8}],"proposals":[{"pos":2,"idx":1},{"pos":1,"idx":0},{"pos":0,"idx":0},{"pos":3,"idx":1},{"pos":` +
		`2,"idx":0},{"pos":5,"idx":1},{"pos":4,"idx":1},{"pos":6,"idx":1},{"pos":10,"idx":0},{"pos":6,"id` +
		`x":0},{"pos":9,"idx":0},{"pos":8,"idx":0},{"pos":5,"idx":0},{"pos":4,"idx":0}]},"Elapsed":0}}`
)

var parentOpts = search.Options{DPOR: true, ContextBound: -1, MaxSteps: 5000, ProgramName: "litmus-mp"}

// writeLedger makes a ledger directory holding entries.
func writeLedger(t *testing.T, entries ...ledger.Entry) string {
	t.Helper()
	dir := t.TempDir()
	led, _, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.AppendAll(entries...); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// raw is a ledger entry of the recorded bytes data.
func raw(typ, data string) ledger.Entry {
	return ledger.Entry{Type: typ, Value: json.RawMessage(data)}
}

// TestParentDporRecordsRefused: a plan or shard_done record this build
// cannot decode is another version's and is refused, never skipped — in
// the jobs service, its job fails naming the ledger as another version's
// instead of being planned and run again; in a checkpoint directory,
// ReadPlan (what check reads first) refuses the directory, and a search
// over it runs unrecorded, appending nothing beside another version's
// records.
func TestParentDporRecordsRefused(t *testing.T) {
	prog := catalog("litmus-mp")
	plan, err := search.PlanShards(prog, parentOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	submitted := ledger.Entry{Type: recSubmitted, Value: submittedRec{Job: "j1", Spec: parentOpts, RefParallelism: 1}}
	thisPlan := ledger.Entry{Type: search.RecPlan, Value: search.PlanRec{Job: "j1", OptionsHash: plan.OptionsHash, Plan: plan}}
	for _, tc := range []struct {
		name    string
		entries []ledger.Entry
	}{
		{"job_plan", []ledger.Entry{submitted, raw(search.RecPlan, parentPlan)}},
		{"shard_done", []ledger.Entry{submitted, thisPlan, raw(search.RecShardDone, parentShardDone)}},
	} {
		t.Run("service/"+tc.name, func(t *testing.T) {
			_, srv := startService(t, Config{Dir: writeLedger(t, tc.entries...)})
			st := waitState(t, srv.URL, "j1", StateFailed)
			if !strings.Contains(st.Error, tc.name+" record") || !strings.Contains(st.Error, "ledger written by another version") {
				t.Fatalf("job over a %s record of the build before: %+v, want it failed as another version's", tc.name, st)
			}
		})
		t.Run("checkpoint/"+tc.name, func(t *testing.T) {
			dir := writeLedger(t, tc.entries[1:]...)
			if rec, err := search.ReadPlan(dir); err == nil || !strings.Contains(err.Error(), "written by another version") {
				t.Fatalf("ReadPlan = %+v, %v; want the directory refused as another version's", rec, err)
			}
			opts := parentOpts
			opts.CheckpointPath, opts.MaxExecutions = dir, 1
			rep := search.Explore(prog, opts)
			if !strings.Contains(rep.CheckpointError, "written by another version") {
				t.Fatalf("a search over the directory: CheckpointError %q, want another version's records refused", rep.CheckpointError)
			}
			_, rec, err := ledger.Open(dir, ledger.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != len(tc.entries)-1 {
				t.Fatalf("the directory holds %d records after the search, want the %d it held", len(rec.Records), len(tc.entries)-1)
			}
		})
	}
}
