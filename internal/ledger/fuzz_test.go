package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzRecords reads FuzzLedgerFrame's input as records: parts split at
// 0xff, each its type up to its first 0x00 and its data after it.
func fuzzRecords(spec []byte) []Record {
	var out []Record
	for i, part := range bytes.Split(spec, []byte{0xff}) {
		typ, data, _ := bytes.Cut(part, []byte{0})
		out = append(out, Record{Seq: uint64(i + 1), Type: string(typ), Data: data})
	}
	return out
}

// writeSegments makes a ledger directory of segs and opens it.
func writeSegments(t *testing.T, segs ...[]byte) *Recovery {
	t.Helper()
	dir := t.TempDir()
	for i, s := range segs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", i)), s, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("opening the ledger: %v", err)
	}
	l.Close()
	return rec
}

// FuzzLedgerFrame holds the ledger's frames to their contract for any
// records: a segment of them replays them as appended, and its frames
// re-encode to its bytes; torn at any byte, it recovers a prefix of them
// and reports a tear exactly when the cut is not on a frame boundary; and
// a bit flipped anywhere in it, once a later segment seals it,
// quarantines it.
func FuzzLedgerFrame(f *testing.F) {
	f.Add([]byte("shard_done\x00\x02\x01\x00\x05"), uint(77))
	f.Add([]byte("job_submitted\x00{\"job\":\"j1\"}\xffshard_grant\x00\xffserver_start"), uint(3))
	f.Add([]byte(strings.Repeat("t\x00\x00\x80\x80\x01\xff", 40)), uint(1000))
	f.Fuzz(func(t *testing.T, spec []byte, at uint) {
		want := fuzzRecords(spec)
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range want {
			if _, err := l.Append(r.Type, r.Data, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(dir, "wal-00000000.seg"))
		if err != nil {
			t.Fatal(err)
		}

		rec := writeSegments(t, seg)
		again, bounds := []byte(segMagic), map[int]bool{len(segMagic): true}
		for i, r := range rec.Records {
			if i >= len(want) || r.Seq != want[i].Seq || r.Type != want[i].Type || !bytes.Equal(r.Data, want[i].Data) {
				t.Fatalf("record %d replays as %+v, want %+v", i, r, want)
			}
			again = encodeFrame(again, r.Seq, r.Type, r.Data)
			bounds[len(again)] = true
		}
		if len(rec.Records) != len(want) || !bytes.Equal(again, seg) {
			t.Fatalf("%d of %d records replay; they re-encode to %q, not %q", len(rec.Records), len(want), again, seg)
		}

		cut := int(at % uint(len(seg)+1))
		torn := writeSegments(t, seg[:cut])
		if n := len(torn.Records); n > len(want) || (n > 0 && torn.Records[n-1].Seq != want[n-1].Seq) {
			t.Fatalf("torn at %d: %d records recovered, not a prefix of the %d appended", cut, n, len(want))
		}
		if tear := torn.TornTails == 1; tear == bounds[cut] || len(torn.Quarantined) != 0 {
			t.Fatalf("torn at %d (a frame boundary: %v): %d torn tails, %d quarantined", cut, bounds[cut], torn.TornTails, len(torn.Quarantined))
		}

		flipped := bytes.Clone(seg)
		flipped[at/8%uint(len(seg))] ^= 1 << (at % 8)
		if q := writeSegments(t, flipped, []byte(segMagic)); len(q.Quarantined) != 1 {
			t.Fatalf("bit %d of byte %d flipped in a sealed segment: %d segments quarantined, want 1", at%8, at/8%uint(len(seg)), len(q.Quarantined))
		}
	})
}

// TestOtherVersionRefused: a directory whose segment opens with another
// version's magic fails Open as another version's, and nothing in it is
// renamed or changed — a quarantine would silently empty it.
func TestOtherVersionRefused(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "wal-00000000.seg")
	old := []byte(oldMagics[0] + "\x05\x00\x00\x00")
	if err := os.WriteFile(seg, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "written by another version") {
		t.Fatalf("Open = %v, want another version's ledger refused", err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	if data, _ := os.ReadFile(seg); len(names) != 1 || !bytes.Equal(data, old) {
		t.Fatalf("the refused directory holds %v, its segment %q", names, data)
	}
}
