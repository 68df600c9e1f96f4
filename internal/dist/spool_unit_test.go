package dist

import (
	"path/filepath"
	"strings"
	"testing"

	"fairmc/internal/faultinject"
	"fairmc/internal/fsx"
	"fairmc/internal/search"
)

func writeTestSpool(t *testing.T, fsys fsx.FS, dir string, shard int, hash uint64) {
	t.Helper()
	err := spoolWrite(fsys, dir, spoolEntry{
		OptionsHash: hash,
		Program:     "prog",
		Shard:       shard,
		Report:      &search.Report{Counters: search.Counters{Executions: 1}},
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
