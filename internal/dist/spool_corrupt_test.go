package dist_test

import (
	"bytes"
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
		Prog: fig3, Program: "fig3", Options: opts, RefParallelism: 2,
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
