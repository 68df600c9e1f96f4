package jobs

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairmc/internal/dist"
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
	return ledger.Entry{Type: typ, Data: []byte(data)}
}

// planEntry is a ledger entry of rec.
func planEntry(t *testing.T, rec *search.PlanRec) ledger.Entry {
	data, err := rec.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ledger.Entry{Type: search.RecPlan, Data: data}
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
	submitted := ledger.Entry{Type: recSubmitted, Data: jsonOf(submittedRec{Job: "j1", Spec: parentOpts, RefParallelism: 1})}
	thisPlan := planEntry(t, &search.PlanRec{Job: "j1", OptionsHash: plan.OptionsHash, Plan: plan})
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

// The one segment of the checkpoint directory the build before the binary
// frames wrote for `check -prog litmus-mp -dpor -fair=false -cb -1
// -maxexec 1`: a DPOR job_plan record and one shard_done record, JSON in
// the ledger's FMCWAL01 frames.
const parentSegment = "FMCWAL01\xc5\x01\x00\x00\x0b\xd2\x8c\xbb{\"seq\":1,\"type\":\"job_plan\",\"data\":{\"job\":\"\",\"optionsHash\":1432174036811510" +
	"8963,\"plan\":{\"strategy\":\"dfs\",\"refParallelism\":2,\"optionsHash\":14321740368115108963,\"shard" +
	"s\":[{\"index\":0,\"unit\":\"AQAAAAA=\"}]},\"spec\":{\"fair\":false,\"fairK\":1,\"contextBound\":-1,\"pctD" +
	"epth\":3,\"maxSteps\":100000,\"memModel\":\"sc\",\"maxExecutions\":1,\"seed\":1,\"dpor\":true,\"divergen" +
	"ceRetries\":2,\"confirmRuns\":3,\"watchdog\":30000000000,\"program\":\"litmus-mp\",\"checkpointInter" +
	"val\":30000000000}}}\xfe\x05\x00\x00\x9ek)={\"seq\":2,\"type\":\"shard_done\",\"data\":{\"job\":\"\",\"optionsHash\":143" +
	"21740368115108963,\"shard\":0,\"report\":{\"Executions\":1,\"TotalSteps\":13,\"MaxDepth\":13,\"Yields" +
	"\":1,\"EdgeAdds\":0,\"EdgeErases\":0,\"FairBlocked\":0,\"BufferedStores\":0,\"Flushes\":0,\"Fences\":0," +
	"\"Forwards\":0,\"NonTerminating\":0,\"PrunedVisited\":0,\"PrunedSleep\":0,\"Deadlocks\":0,\"Violation" +
	"s\":0,\"Wedges\":0,\"Quarantined\":0,\"Skipped\":0,\"FirstBug\":null,\"FirstBugExecution\":0,\"Diverge" +
	"nce\":null,\"DivergenceExecution\":0,\"FirstWedge\":null,\"FirstWedgeExecution\":0,\"Nondeterminis" +
	"m\":null,\"BugReproducibility\":null,\"DivergenceReproducibility\":null,\"Exhausted\":true,\"Timed" +
	"Out\":false,\"ExecBounded\":false,\"Interrupted\":false,\"WorkerFailures\":null,\"CheckpointError\"" +
	":\"\",\"Dpor\":\"AQ0AAAAAAAAAAAAAAAAADQABAAEAAQIBAgECAQIBBAEEAQQBBAEAAQABDddwcDxGA7JwAAVzdGFydA" +
	"EA0qxiInp3aKcABXNwYXduAQJY1Qs7D9j+NwAFc3Bhd24BBBf6gf3Jo0sPAgVzdGFydAEABuTed9rfdN0CCHdtLndy" +
	"aXRlAAAgATh39SgbeQIId20ud3JpdGUAAtNx4DDaLr6mAgZ3Zy5hZGQCAXt0SmJaYXOUBAVzdGFydAEAWF5nIsV1uz" +
	"oEB3dtLnJlYWQAAr5hZyLFd7s6BAd3bS5yZWFkAADd45f36PeTXQQGd2cuYWRkAgEL649qgtJbQwAHd2cud2FpdAIA" +
	"uWWn7etEgicACHdtLmRyYWluAAAKDwRY1Qs7D9j+NwIAAQABBXNwYXduAQQCAQIBBXN0YXJ0AQAC0qxiInp3aKcBAA" +
	"EAAQVzcGF3bgECANdwcDxGA7JwAQABAAEFc3RhcnQBAAYX+oH9yaNLDwICAQIBBXN0YXJ0AQAEAQQBBXN0YXJ0AQAK" +
	"IAE4d/UoG3kCAgECAQh3bS53cml0ZQACBAEEAQVzdGFydAEACAbk3nfa33TdAgIBAgEId20ud3JpdGUAAAQBBAEFc3" +
	"RhcnQBAAzTceAw2i6+pgICAQIBBndnLmFkZAIBBAEEAQVzdGFydAEAFN3jl/fo95NdAQQBBAEGd2cuYWRkAgESvmFn" +
	"IsV3uzoBBAEEAQd3bS5yZWFkAAAQWF5nIsV1uzoBBAEEAQd3bS5yZWFkAAIOBAICAAAABgIEAAoCCAIMAhQADAASAB" +
	"AACgAIAA==\",\"Elapsed\":577551}}}"

// TestParentLedgerRefused: a ledger directory of the build before —
// a WAL, or a checkpoint directory — is another version's. Opening it
// fails naming that, and nothing in it is renamed, truncated or added:
// the service refuses to start on it, and a search over it (ReadPlan,
// what check reads first; check exits 2 on its error) refuses it,
// instead of quarantining the segment and planning the search again.
func TestParentLedgerRefused(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "wal-00000000.seg")
	if err := os.WriteFile(seg, []byte(parentSegment), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir, Lookup: testLookup}); err == nil || !strings.Contains(err.Error(), "written by another version") {
		t.Fatalf("New = %v, want the ledger refused as another version's", err)
	}
	if rec, err := search.ReadPlan(dir); err == nil || !strings.Contains(err.Error(), "written by another version") {
		t.Fatalf("ReadPlan = %+v, %v; want the directory refused as another version's", rec, err)
	}
	opts := parentOpts
	opts.CheckpointPath, opts.MaxExecutions = dir, 1
	if rep := search.Explore(catalog("litmus-mp"), opts); !strings.Contains(rep.CheckpointError, "written by another version") {
		t.Fatalf("a search over the directory: CheckpointError %q, want the ledger refused", rep.CheckpointError)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	data, _ := os.ReadFile(seg)
	if len(names) != 1 || !bytes.Equal(data, []byte(parentSegment)) {
		t.Fatalf("the directory holds %v after being refused, its segment changed: %v", names, !bytes.Equal(data, []byte(parentSegment)))
	}
}

// leaseRequestOf is a transport that sends every lease request as body
// says, as a worker of another build would.
type leaseRequestOf string

func (body leaseRequestOf) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, dist.PathLease) {
		req.Body = io.NopCloser(strings.NewReader(string(body)))
		req.ContentLength = int64(len(body))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestOtherBuildWorkerRefused: a lease request that names no codec
// version (the build before) or another one is answered with a 4xx
// naming both versions, and a worker that gets that answer exits naming
// it, rather than retrying until its join timeout.
func TestOtherBuildWorkerRefused(t *testing.T) {
	_, srv := startService(t, Config{Dir: t.TempDir()})
	for _, body := range []string{`{"workerId":"old"}`, `{"workerId":"new","codec":3}`} {
		resp, err := http.Post(srv.URL+dist.PathLease, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 4 || !strings.Contains(string(msg), "codec version") {
			t.Fatalf("lease request %s: HTTP %d %s, want a 4xx naming the versions", body, resp.StatusCode, msg)
		}
	}
	err := dist.RunWorker(dist.WorkerConfig{URL: srv.URL, Lookup: testLookup, Transport: leaseRequestOf(`{"workerId":"old"}`)})
	if err == nil || !strings.Contains(err.Error(), "codec version 0") || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("RunWorker = %v, want it to exit on the refusal", err)
	}
}
