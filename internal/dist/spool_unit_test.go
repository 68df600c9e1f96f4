package dist

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fairmc/internal/engine"
	"fairmc/internal/faultinject"
	"fairmc/internal/fsx"
	"fairmc/internal/search"
)

func writeTestSpool(t *testing.T, fsys fsx.FS, dir string, shard int, hash uint64) {
	t.Helper()
	err := spoolWrite(fsys, dir, spoolEntry{
		spoolHead: spoolHead{OptionsHash: hash, Program: "prog"},
		Shard:     shard,
		Report:    &search.Report{Counters: search.Counters{Executions: 1}},
	})
	if err != nil {
		t.Fatalf("spoolWrite shard %d: %v", shard, err)
	}
}

func TestSpoolFooterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for shard := 0; shard < 3; shard++ {
		writeTestSpool(t, fsx.OS, dir, shard, 42)
	}
	entries, corrupt, skipped, err := spoolList(fsx.OS, dir, 42, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || len(corrupt) != 0 || len(skipped) != 0 {
		t.Fatalf("entries=%d corrupt=%v skipped=%v", len(entries), corrupt, skipped)
	}
	for i, e := range entries {
		if e.Shard != i || e.Report == nil {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
}

func TestSpoolTruncatedEntryCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeTestSpool(t, fsx.OS, dir, 0, 42)
	writeTestSpool(t, fsx.OS, dir, 1, 42)
	// Tear shard 1's file mid-payload, as a crashed write leaves it.
	path := spoolPath(dir, 1)
	data, _ := fsx.OS.ReadFile(path)
	if err := fsx.OS.Truncate(path, int64(len(data)/2)); err != nil {
		t.Fatal(err)
	}

	entries, corrupt, _, err := spoolList(fsx.OS, dir, 42, "prog")
	if err != nil {
		t.Fatalf("a corrupt entry must not fail the whole replay: %v", err)
	}
	if len(entries) != 1 || entries[0].Shard != 0 {
		t.Fatalf("entries = %+v, want only shard 0", entries)
	}
	if len(corrupt) != 1 || corrupt[0].Shard != 1 {
		t.Fatalf("corrupt = %+v, want shard 1", corrupt)
	}
}

func TestSpoolBitFlipCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeTestSpool(t, fsx.OS, dir, 0, 42)
	path := spoolPath(dir, 0)
	data, _ := fsx.OS.ReadFile(path)
	data[len(data)/3] ^= 0x40
	fsx.WriteFileAtomic(fsx.OS, path, data)

	entries, corrupt, _, err := spoolList(fsx.OS, dir, 42, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || len(corrupt) != 1 || corrupt[0].Reason != "crc mismatch" {
		t.Fatalf("entries=%v corrupt=%+v", entries, corrupt)
	}
}

func TestSpoolMissingFooterCorrupt(t *testing.T) {
	dir := t.TempDir()
	// A v1-era entry: bare JSON, no footer. The honest verdict is
	// "corrupt" — it was never checksummed.
	fsx.WriteFileAtomic(fsx.OS, spoolPath(dir, 2),
		[]byte(`{"version":1,"optionsHash":42,"program":"prog","shard":2,"report":{}}`))
	entries, corrupt, _, err := spoolList(fsx.OS, dir, 42, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || len(corrupt) != 1 {
		t.Fatalf("entries=%v corrupt=%+v", entries, corrupt)
	}
	if corrupt[0].Shard != 2 || !strings.Contains(corrupt[0].Reason, "footer") {
		t.Fatalf("corrupt = %+v", corrupt[0])
	}
}

func TestSpoolDifferentSearchSkippedNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeTestSpool(t, fsx.OS, dir, 0, 999) // other search's hash, intact CRC
	entries, corrupt, skipped, err := spoolList(fsx.OS, dir, 42, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || len(corrupt) != 0 || len(skipped) != 1 {
		t.Fatalf("entries=%v corrupt=%v skipped=%v", entries, corrupt, skipped)
	}
	// Someone else's work is not ours to delete.
	if _, err := fsx.OS.Stat(spoolPath(dir, 0)); err != nil {
		t.Fatalf("skipped entry was touched: %v", err)
	}
}

// TestSpoolParentEntrySkipped: an entry the build before the DPOR unit
// codec spooled holds a report whose DPOR payload this build cannot
// decode. It names another search (the codec version is in the options
// hash), so it is skipped as one — not reported as corrupt, which would
// charge this search a worker failure.
func TestSpoolParentEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	payload := `{"version":2,"optionsHash":11163948880166998460,"program":"prog","shard":0,` +
		`"report":{"Executions":1,"Dpor":{"contIdx":[0],"cont":[{"Tid":0,"Arg":-1}]}}}`
	if err := fsx.WriteFileAtomic(fsx.OS, spoolPath(dir, 0), spoolFrame([]byte(payload))); err != nil {
		t.Fatal(err)
	}
	entries, corrupt, skipped, err := spoolList(fsx.OS, dir, 42, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || len(corrupt) != 0 || len(skipped) != 1 {
		t.Fatalf("entries=%v corrupt=%v skipped=%v", entries, corrupt, skipped)
	}
}

// TestWorkerRefusesParentGrant: a grant whose DPOR unit has the shape the
// build before the unit codec wrote (a JSON object) is another version's.
// The worker exits naming it, instead of retrying the lease as a
// transient failure until its join timeout.
func TestWorkerRefusesParentGrant(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"work","grants":[{"leaseId":"l1","shard":{"index":0,"unit":{}}}],"job":"j1",`+
			`"path":"/job/j1","spec":{"fair":false,"contextBound":-1,"maxSteps":5000,"seed":0,"dpor":true,"program":"racy"},`+
			`"optionsHash":11163948880166998460,"leaseTtlMs":5000}`)
	}))
	defer srv.Close()
	none := func(string) (func(*engine.T), bool) { return nil, false }
	err := RunWorker(WorkerConfig{URL: srv.URL, Lookup: none, JoinTimeout: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "written by another version") {
		t.Fatalf("RunWorker = %v, want the grant refused as another version's", err)
	}
}

func TestSpoolReadCorruptionCaught(t *testing.T) {
	dir := t.TempDir()
	for shard := 0; shard < 4; shard++ {
		writeTestSpool(t, fsx.OS, dir, shard, 42)
	}
	// Every read flips one bit; the CRC footer must catch each one.
	in := faultinject.NewFS(9, faultinject.FSScenario{
		Rules: []faultinject.FSRule{{Path: "spool-shard-", ReadCorrupt: 1}},
	}, fsx.OS)
	entries, corrupt, _, err := spoolList(in, dir, 42, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d corrupted reads slipped past the CRC", len(entries))
	}
	if len(corrupt) != 4 {
		t.Fatalf("corrupt = %+v, want all 4", corrupt)
	}
}

func TestSpoolShardFromName(t *testing.T) {
	if got := spoolShardFromName(filepath.Join("x", "spool-shard-0012.json")); got != 12 {
		t.Fatalf("parsed %d, want 12", got)
	}
	if got := spoolShardFromName("garbage.json"); got != -1 {
		t.Fatalf("parsed %d, want -1", got)
	}
}
