package dist_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairmc/internal/dist"
	"fairmc/internal/obs"
	"fairmc/internal/search"
)

// TestDistCorruptSpoolEntryAdvisory: a spool entry whose CRC footer
// fails is skipped and surfaced to the coordinator as an advisory
// WorkerFailure — the replay continues, the affected shard is simply
// re-explored, the reporting worker is NOT excluded (a single-worker
// search must not livelock on its own report), and the merged report
// stays byte-identical to the fault-free local run.
func TestDistCorruptSpoolEntryAdvisory(t *testing.T) {
	workDir := t.TempDir()
	opts := search.Options{Fair: true, ContextBound: -1, MaxSteps: 10000}
	cfg := dist.CoordinatorConfig{
		Prog: fig3, Options: named("fig3", opts), RefParallelism: 2,
		LeaseTTL: 5 * time.Second,
	}
	coordA, srvA := startCoordinator(t, cfg)
	shardCount := coordStatus(t, srvA.URL).Shards

	// Phase 1: sever the result path so every shard report spools.
	gate := &resultGate{}
	gate.setBlocked(true)
	mA := &obs.Metrics{}
	stopA := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(dist.WorkerConfig{
			URL:       srvA.URL,
			Lookup:    lookup,
			WorkDir:   workDir,
			Metrics:   mA,
			Retry:     fastPolicy(1),
			Transport: gate,
			Stop:      stopA,
		})
	}()
	deadline := time.After(15 * time.Second)
	for int(mA.Snapshot().SpooledResults) < shardCount {
		select {
		case <-deadline:
			t.Fatalf("spooled %d/%d shards before timeout", mA.Snapshot().SpooledResults, shardCount)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stopA)
	if err := <-done; err != nil {
		t.Fatalf("spooling worker: %v", err)
	}
	coordA.Interrupt()
	coordA.Wait()
	srvA.Close()

	// Corrupt one entry: flip a payload bit under the intact footer.
	names, _ := filepath.Glob(filepath.Join(workDir, "spool-shard-*.json"))
	if len(names) != shardCount {
		t.Fatalf("spooled files = %v, want %d", names, shardCount)
	}
	victim := names[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator and ONE worker sharing the workdir.
	// The corrupt entry must not fail the replay or exclude the only
	// worker; the search completes with one shard re-explored.
	coordB, srvB := startCoordinator(t, cfg)
	mB := &obs.Metrics{}
	if err := dist.RunWorker(dist.WorkerConfig{
		URL: srvB.URL, Lookup: lookup, WorkDir: workDir, Metrics: mB,
		Retry: fastPolicy(2),
	}); err != nil {
		t.Fatalf("replaying worker: %v", err)
	}
	got := coordB.Wait()

	if execs := mB.Snapshot().Executions; execs == 0 {
		t.Fatal("corrupted shard was not re-explored")
	}
	var advisory *search.WorkerFailure
	for i := range got.WorkerFailures {
		if strings.Contains(got.WorkerFailures[i].Panic, "corrupt spool entry") {
			advisory = &got.WorkerFailures[i]
		}
	}
	if advisory == nil {
		t.Fatalf("corrupt entry not surfaced as a WorkerFailure: %+v", got.WorkerFailures)
	}
	if advisory.Attempt != 0 {
		t.Fatalf("advisory failure charged an attempt: %+v", advisory)
	}
	if left, _ := filepath.Glob(filepath.Join(workDir, "spool-shard-*.json")); len(left) != 0 {
		t.Fatalf("spool not cleaned up (incl. the corrupt entry): %v", left)
	}

	ref := opts
	ref.Parallelism = 2
	want := search.Explore(fig3, ref)
	// The advisory failure legitimately appears only in the distributed
	// run; everything the deterministic report contract covers must
	// still match.
	gotN := normalize(got)
	gotN.WorkerFailures = nil
	got = gotN
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatalf("report differs from local -p 2:\n%+v\nvs\n%+v", want, got)
	}
	if w, g := runReportBytes(t, want, "fig3", opts), runReportBytes(t, got, "fig3", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical with a corrupt spool entry:\n%s\nvs\n%s", w, g)
	}
}

// TestDistCorruptShardCheckpointIgnored: a worker-local range-shard
// checkpoint that names this very search but holds an impossible
// position (minus one executions, one before the shard's first index)
// is ignored and removed, not handed to the shard — where the shard's
// own Validate would refuse it and every retry would crash the same way
// until the shard was abandoned. The shard runs from its start and the
// report is byte-identical to the local run.
func TestDistCorruptShardCheckpointIgnored(t *testing.T) {
	workDir := t.TempDir()
	opts := search.Options{
		Fair: true, RandomWalk: true, MaxExecutions: 400, MaxSteps: 1000,
		Seed: 3, ContinueAfterViolation: true,
	}
	spec := named("racy", opts)
	plan, err := search.PlanShards(racyIncrement, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh := plan.Shards[0]
	if sh.Hi == 0 {
		t.Fatalf("shard %+v is not a range shard", sh)
	}
	shardOpts := spec
	shardOpts.Parallelism = 1
	ck := &search.Checkpoint{
		Version: search.CheckpointVersion,
		Meta: search.CheckpointMeta{
			Program:     "racy",
			Strategy:    search.StrategyName(&shardOpts),
			Seed:        opts.Seed,
			OptionsHash: search.OptionsHash(&shardOpts),
			Parallelism: 1,
		},
		Counters: search.Counters{Executions: -1},
		Stride:   &search.StrideState{NextIndex: sh.Lo - 1},
	}
	if err := search.ValidateShardResume(&spec, sh, ck); err == nil {
		t.Fatal("ValidateShardResume accepted a checkpoint with minus one executions")
	}
	ckpt := filepath.Join(workDir, fmt.Sprintf("shard-%04d.ckpt", sh.Index))
	if err := ck.WriteFile(ckpt); err != nil {
		t.Fatal(err)
	}

	coord, srv := startCoordinator(t, dist.CoordinatorConfig{
		Prog: racyIncrement, Options: spec, RefParallelism: 2,
		LeaseTTL: 5 * time.Second,
	})
	if err := dist.RunWorker(dist.WorkerConfig{
		URL: srv.URL, Lookup: lookup, WorkDir: workDir, Retry: fastPolicy(1),
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	got := coord.Wait()
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("corrupt checkpoint %s left behind (stat: %v)", ckpt, err)
	}

	ref := opts
	ref.Parallelism = 2
	want := search.Explore(racyIncrement, ref)
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatalf("report differs from local -p 2:\n%+v\nvs\n%+v", want, got)
	}
	if w, g := runReportBytes(t, want, "racy", opts), runReportBytes(t, got, "racy", opts); !bytes.Equal(w, g) {
		t.Fatalf("run report not byte-identical over a corrupt shard checkpoint:\n%s\nvs\n%s", w, g)
	}
}
