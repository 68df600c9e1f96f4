package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fairmc/internal/faultinject"
	"fairmc/internal/fsx"
	"fairmc/internal/obs"
)

// jsonOf is v's JSON.
func jsonOf(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

type payload struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func appendN(t *testing.T, l *Ledger, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append("test", payload{N: i, S: tag}, true); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func open(t *testing.T, dir string, opts Options) (*Ledger, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := open(t, dir, Options{})
	if len(rec.Records) != 0 {
		t.Fatalf("fresh ledger replayed %d records", len(rec.Records))
	}
	appendN(t, l, 10, "a")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := open(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != 10 {
		t.Fatalf("replayed %d records, want 10", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || r.Type != "test" {
			t.Fatalf("record %d: seq=%d type=%q", i, r.Seq, r.Type)
		}
		var p payload
		if err := json.Unmarshal(r.Data, &p); err != nil || p.N != i {
			t.Fatalf("record %d payload: %s (%v)", i, r.Data, err)
		}
	}
	// Sequence numbers continue after restart.
	seq, err := l2.Append("test", payload{N: 10}, true)
	if err != nil || seq != 11 {
		t.Fatalf("post-restart append: seq=%d err=%v", seq, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 40, strings.Repeat("x", 32))
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	l2, rec := open(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if len(rec.Records) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d out of order: seq=%d", i, r.Seq)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	appendN(t, l, 5, "keep")
	l.Close()

	// Tear the tail: append half of a plausible frame.
	seg := filepath.Join(dir, "wal-00000000.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{40, 0, 0, 0, 0xde, 0xad}) // length=40, torn mid-CRC
	f.Close()
	before, _ := os.Stat(seg)

	m := obs.NewMetrics()
	l2, rec := open(t, dir, Options{Metrics: m})
	if rec.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", rec.TornTails)
	}
	if len(rec.Records) != 5 || len(rec.Quarantined) != 0 {
		t.Fatalf("records=%d quarantined=%d", len(rec.Records), len(rec.Quarantined))
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	if m.LedgerTornTails.Load() != 1 || m.LedgerReplayed.Load() != 5 {
		t.Fatalf("metrics: tornTails=%d replayed=%d", m.LedgerTornTails.Load(), m.LedgerReplayed.Load())
	}
	// Appends continue cleanly on the repaired tail.
	if seq, err := l2.Append("test", payload{N: 5}, true); err != nil || seq != 6 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	l2.Close()
	_, rec3 := open(t, dir, Options{})
	if len(rec3.Records) != 6 {
		t.Fatalf("after repair+append replay got %d records, want 6", len(rec3.Records))
	}
}

func TestMidSegmentCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 40, strings.Repeat("x", 32))
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip one payload byte in the middle of a NON-last segment.
	victim := segs[1]
	data, _ := os.ReadFile(victim)
	data[len(data)/2] ^= 0xff
	os.WriteFile(victim, data, 0o644)

	m := obs.NewMetrics()
	l2, rec := open(t, dir, Options{SegmentBytes: 256, Metrics: m})
	defer l2.Close()
	if len(rec.Quarantined) != 1 {
		t.Fatalf("Quarantined = %+v, want 1 entry", rec.Quarantined)
	}
	q := rec.Quarantined[0]
	if q.Segment != filepath.Base(victim) || q.Reason == "" {
		t.Fatalf("quarantine report: %+v", q)
	}
	if _, err := os.Stat(victim + ".quar"); err != nil {
		t.Fatalf("quarantined segment not sealed aside: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("original corrupt segment still present: %v", err)
	}
	// Records before the corruption and from later segments survive.
	if len(rec.Records) >= 40 || len(rec.Records) == 0 {
		t.Fatalf("replayed %d records, want partial set", len(rec.Records))
	}
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].Seq <= rec.Records[i-1].Seq {
			t.Fatal("replayed records out of order")
		}
	}
	if m.LedgerQuarantines.Load() != 1 {
		t.Fatalf("LedgerQuarantines = %d", m.LedgerQuarantines.Load())
	}
}

func TestReadCorruptionCaughtByCRC(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	appendN(t, l, 8, "r")
	l.Close()

	// Every ReadFile flips one bit — the CRC must catch it; the only
	// acceptable outcomes are torn-tail truncation (bit in last frame)
	// or quarantine (bit elsewhere), never silently wrong data.
	in := faultinject.NewFS(11, faultinject.FSScenario{
		Rules: []faultinject.FSRule{{Path: "wal-", ReadCorrupt: 1}},
	}, fsx.OS)
	m := &obs.Metrics{}
	in.OnFault = func(string) { m.FSFaultsInjected.Inc() }
	l2, rec, err := Open(dir, Options{FS: in, Metrics: m})
	if err != nil {
		t.Fatalf("Open under read corruption: %v", err)
	}
	defer l2.Close()
	if rec.TornTails+len(rec.Quarantined) == 0 {
		t.Fatalf("corrupted read not detected: %d records, %d torn, %d quar",
			len(rec.Records), rec.TornTails, len(rec.Quarantined))
	}
	snap := m.Snapshot()
	if snap.FSFaultsInjected == 0 {
		t.Fatal("fault injector fired without counting FSFaultsInjected")
	}
	if snap.LedgerTornTails+snap.LedgerQuarantines == 0 {
		t.Fatalf("repair happened but was not counted: %+v", snap)
	}
	for _, r := range rec.Records {
		var p payload
		if err := json.Unmarshal(r.Data, &p); err != nil || p.S != "r" {
			t.Fatalf("surviving record is corrupt: %s", r.Data)
		}
	}
}

func TestSyncErrorSurfacesAndFreezes(t *testing.T) {
	dir := t.TempDir()
	in := faultinject.NewFS(2, faultinject.FSScenario{
		Rules: []faultinject.FSRule{{Path: "wal-", SyncErr: 1}},
	}, fsx.OS)
	// Segment creation itself syncs; with SyncErr=1 Open must fail
	// loudly rather than continue on an undurable segment.
	if _, _, err := Open(dir, Options{FS: in}); err == nil {
		t.Fatal("Open with failing fsync should error")
	}

	// Now a ledger that opens clean but whose appends hit sync errors.
	dir2 := t.TempDir()
	l, _ := open(t, dir2, Options{})
	l.Close()
	in2 := faultinject.NewFS(2, faultinject.FSScenario{
		Rules: []faultinject.FSRule{{Path: "wal-", SyncErr: 1}},
	}, fsx.OS)
	// Opening an existing ledger only stats + opens the tail, no sync.
	l2, _, err := Open(dir2, Options{FS: in2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.Append("test", payload{N: 1}, true); err == nil {
		t.Fatal("synced append with failing fsync should error")
	}
	// The ledger freezes after a failed commit: later appends fail too.
	if _, err := l2.Append("test", payload{N: 2}, true); err == nil {
		t.Fatal("append after freeze should error")
	}
}

func TestShortWriteFreezesThenRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	appendN(t, l, 3, "pre")
	l.Close()

	// Exactly the 4th write to the tail tears (ordinal-scheduled).
	in := faultinject.NewFS(5, faultinject.FSScenario{
		Rules: []faultinject.FSRule{{Path: "wal-", ShortWrite: 1}},
	}, fsx.OS)
	l2, _, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.Append("test", payload{N: 99}, true); err == nil {
		t.Fatal("torn append should error")
	}
	l2.Close()

	// Recovery truncates the torn frame; the 3 committed records and
	// append capability survive.
	l3, rec := open(t, dir, Options{})
	defer l3.Close()
	if len(rec.Records) != 3 || rec.TornTails != 1 {
		t.Fatalf("records=%d tornTails=%d, want 3/1", len(rec.Records), rec.TornTails)
	}
	if seq, err := l3.Append("test", payload{N: 4}, true); err != nil || seq != 4 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
}

func TestFreeze(t *testing.T) {
	l, _ := open(t, t.TempDir(), Options{})
	if _, err := l.Append("test", payload{N: 1}, true); err != nil {
		t.Fatal(err)
	}
	l.Freeze()
	if _, err := l.Append("test", payload{N: 2}, true); err == nil {
		t.Fatal("append after Freeze should fail")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after Freeze should not report clean shutdown")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{SegmentBytes: 512})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := l.Append("test", payload{N: g*100 + i}, i%5 == 0); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()

	_, rec := open(t, dir, Options{})
	if len(rec.Records) != 200 {
		t.Fatalf("replayed %d records, want 200", len(rec.Records))
	}
	seen := map[uint64]bool{}
	for _, r := range rec.Records {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestImplausibleLengthIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{SegmentBytes: 128})
	appendN(t, l, 10, strings.Repeat("y", 24))
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need 2 segments, got %d", len(segs))
	}
	// Stamp a giant length field over a mid-file frame of segment 0.
	data, _ := os.ReadFile(segs[0])
	copy(data[len(segMagic):], []byte{0xff, 0xff, 0xff, 0x7f})
	os.WriteFile(segs[0], data, 0o644)

	l2, rec := open(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0].Reason, "length") {
		t.Fatalf("quarantine = %+v", rec.Quarantined)
	}
}

func TestBadMagicQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{SegmentBytes: 128})
	appendN(t, l, 10, strings.Repeat("z", 24))
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need 2 segments, got %d", len(segs))
	}
	data, _ := os.ReadFile(segs[0])
	copy(data, "XXXXXXXX")
	os.WriteFile(segs[0], data, 0o644)

	l2, rec := open(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	if len(rec.Quarantined) != 1 || rec.Quarantined[0].Reason != "bad segment magic" {
		t.Fatalf("quarantine = %+v", rec.Quarantined)
	}
}

func TestTornSegmentCreationRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	appendN(t, l, 2, "a")
	l.Close()
	// Simulate a crash during creation of the NEXT segment: a file with
	// only half the magic.
	os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), []byte("FMC"), 0o644)

	l2, rec := open(t, dir, Options{})
	defer l2.Close()
	if rec.TornTails != 1 || len(rec.Records) != 2 {
		t.Fatalf("tornTails=%d records=%d", rec.TornTails, len(rec.Records))
	}
	if seq, err := l2.Append("test", payload{N: 9}, true); err != nil || seq != 3 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
}

func TestCrashAtEveryAppendBoundary(t *testing.T) {
	// For each k, freeze the ledger after k successful appends, then
	// reopen and check all k records are intact and appendable.
	for k := 0; k <= 6; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := open(t, dir, Options{SegmentBytes: 200})
			for i := 0; i < k; i++ {
				if _, err := l.Append("test", payload{N: i}, true); err != nil {
					t.Fatal(err)
				}
			}
			l.Freeze() // kill -9 from the disk's perspective

			l2, rec := open(t, dir, Options{SegmentBytes: 200})
			defer l2.Close()
			if len(rec.Records) != k {
				t.Fatalf("replayed %d, want %d", len(rec.Records), k)
			}
			if seq, err := l2.Append("test", payload{N: k}, true); err != nil || seq != uint64(k+1) {
				t.Fatalf("append: seq=%d err=%v", seq, err)
			}
		})
	}
}

// TestFrameGolden pins the frame bytes: [u32 length][u32 CRC32C] around
// [uvarint seq][uvarint type length][type][data], the data as it was
// given — bytes that replay alike whatever wrote them.
func TestFrameGolden(t *testing.T) {
	cases := []struct {
		typ  string
		data []byte
	}{
		{"shard_done", []byte{2, 0, 0xff, 0x80}},
		{"server_start", []byte(`{"jobs":3}`)},
		{"bare", nil},
		{"odd \"type\" <&>", []byte("é\n")},
	}
	for i, c := range cases {
		seq := uint64(i*1000 + 7)
		got := encodeFrame(nil, seq, c.typ, c.data)
		payload := binary.AppendUvarint(nil, seq)
		payload = binary.AppendUvarint(payload, uint64(len(c.typ)))
		payload = append(append(payload, c.typ...), c.data...)
		want := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(want[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(want[4:8], crc32.Checksum(payload, crcTable))
		copy(want[8:], payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame\n%q\nwant\n%q", c.typ, got, want)
		}
		r, ok := decodePayload(got[8:])
		if !ok || r.Seq != seq || r.Type != c.typ || !bytes.Equal(r.Data, c.data) {
			t.Fatalf("%s: frame decodes to %+v (%v)", c.typ, r, ok)
		}
	}
	// And one literal, so the reference above cannot drift with it.
	frame := encodeFrame(nil, 42, "job_done", []byte(`{"job":"j1"}`))
	if got, want := string(frame[8:]), "\x2a\x08job_done"+`{"job":"j1"}`; got != want {
		t.Fatalf("payload %q, want %q", got, want)
	}
}

// countingFS counts fsyncs of ledger segment files.
type countingFS struct {
	fsx.FS
	syncs *int
}

type countingFile struct {
	fsx.File
	syncs *int
}

func (f countingFile) Sync() error { *f.syncs++; return f.File.Sync() }

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.syncs}, nil
}

// TestAppendAllGroupCommit: a group lands as consecutive records under
// one fsync, in order, and replays like records appended one by one.
func TestAppendAllGroupCommit(t *testing.T) {
	dir := t.TempDir()
	syncs := 0
	m := &obs.Metrics{}
	l, _ := open(t, dir, Options{FS: countingFS{fsx.OS, &syncs}, Metrics: m})
	appendN(t, l, 2, "single")
	before := syncs
	var group []Entry
	for i := 0; i < 5; i++ {
		group = append(group, Entry{Type: "grouped", Data: jsonOf(payload{N: i})})
	}
	if err := l.AppendAll(group...); err != nil {
		t.Fatalf("AppendAll: %v", err)
	}
	if got := syncs - before; got != 1 {
		t.Fatalf("group of 5 cost %d fsyncs, want 1", got)
	}
	if seq, err := l.Append("test", payload{N: 9}, true); err != nil || seq != 8 {
		t.Fatalf("append after the group: seq=%d err=%v, want 8", seq, err)
	}
	if got := m.Snapshot().LedgerAppends; got != 8 {
		t.Fatalf("ledgerAppends = %d, want 8 (one per frame)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := open(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 8 {
		t.Fatalf("replayed %d records, want 8", len(rec.Records))
	}
	for i, r := range rec.Records[2:7] {
		var p payload
		if err := json.Unmarshal(r.Data, &p); err != nil || r.Type != "grouped" || p.N != i || r.Seq != uint64(3+i) {
			t.Fatalf("group record %d: %+v (%v)", i, r, err)
		}
	}
}

// TestFreezeAfterCutsGroup: a kill -9 between the frames of a group
// leaves exactly the frames before it, the caller is refused, and the
// survivors replay as a prefix of the group — for every cut, including
// the one after the last frame and before the fsync.
func TestFreezeAfterCutsGroup(t *testing.T) {
	const n = 4
	for cut := 0; cut <= n; cut++ {
		dir := t.TempDir()
		l, _ := open(t, dir, Options{})
		appendN(t, l, 1, "before")
		var group []Entry
		for i := 0; i < n; i++ {
			group = append(group, Entry{Type: "grouped", Data: jsonOf(payload{N: i})})
		}
		l.FreezeAfter(cut)
		if err := l.AppendAll(group...); err == nil {
			t.Fatalf("cut=%d: a group cut short by a freeze reported success", cut)
		}
		if _, err := l.Append("test", payload{N: 99}, true); err == nil {
			t.Fatalf("cut=%d: append after the freeze succeeded", cut)
		}
		l.Close()
		l2, rec := open(t, dir, Options{})
		if len(rec.Records) != 1+cut {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(rec.Records), 1+cut)
		}
		for i, r := range rec.Records[1:] {
			var p payload
			if err := json.Unmarshal(r.Data, &p); err != nil || p.N != i {
				t.Fatalf("cut=%d: survivor %d is %+v, want group entry %d", cut, i, r, i)
			}
		}
		l2.Close()
	}
}
