// Package ledger is the durable memory of the checking service: an
// append-only, segmented write-ahead log that records every commitment
// the jobs layer makes — submissions, shard grants and completions,
// findings, final reports — so a kill -9'd coordinator can restart,
// replay the log, and resume with nothing lost but in-flight work.
//
// Design, in order of what it defends against:
//
//   - Process crash mid-append: every record is framed as
//     [u32 length][u32 CRC32C][payload], the payload being [uvarint
//     seq][uvarint type length][type][data]; a crash can only tear the
//     LAST record of the LAST segment, and recovery truncates that
//     torn tail so appends continue on a clean boundary. The frame
//     is written with a single Write call, so the tail is a prefix.
//   - Lost directory entries: segment creation and rotation fsync the
//     parent directory (via internal/fsx), so a crash cannot roll a
//     visible segment back out of the namespace.
//   - Silent media corruption: a record whose CRC32C fails in the
//     MIDDLE of the log (not the writable tail) cannot be repaired by
//     truncation without discarding good later records, so the whole
//     segment is sealed aside (renamed *.quar), the loss is reported
//     structurally in Recovery.Quarantined, and replay continues with
//     later segments. Never a panic, never a silent skip.
//   - Another build's ledger: a segment that opens with another
//     version's magic fails Open, and nothing is renamed or truncated;
//     its records are that build's to read.
//
// The ledger knows nothing about jobs or shards: records are
// (seq, type, data) triples, the data opaque bytes, and the layer
// above owns the schema. Sequence numbers are assigned by the ledger and
// strictly increase across restarts, so replay order is total and
// duplicated appends are detectable by the layer above.
package ledger

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"fairmc/internal/fsx"
	"fairmc/internal/obs"
)

// segMagic is the 8-byte header of every segment file.
const segMagic = "FMCWAL02"

// oldMagics are the headers of the segments other versions wrote.
var oldMagics = []string{"FMCWAL01"}

// ErrVersion is what Open returns, wrapped, for a directory holding a
// segment another version of the ledger wrote.
var ErrVersion = errors.New("ledger: written by another version")

// maxRecordLen bounds a single record frame. A length field above this
// is treated as corruption (a garbage frame would otherwise make
// recovery try to allocate gigabytes).
const maxRecordLen = 64 << 20

// defaultSegmentBytes is the rotation threshold: a segment that has
// grown past this size is sealed and a new one started.
const defaultSegmentBytes = 4 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed ledger entry.
type Record struct {
	// Seq is the ledger-assigned sequence number, strictly increasing
	// across segments and restarts.
	Seq uint64
	// Type names the record schema (owned by the layer above).
	Type string
	// Data is the record payload, opaque to the ledger (nil: none).
	Data []byte
}

// QuarantineReport describes one segment sealed aside during recovery
// because a non-tail record failed validation.
type QuarantineReport struct {
	// Segment is the original segment file name (now renamed to
	// Segment + ".quar").
	Segment string `json:"segment"`
	// Offset is the byte offset of the first bad frame.
	Offset int64 `json:"offset"`
	// Reason describes what failed (CRC mismatch, bad length, ...).
	Reason string `json:"reason"`
	// RecordsKept is how many records earlier in the segment were
	// intact and replayed before the corruption.
	RecordsKept int `json:"recordsKept"`
}

// Recovery is what Open learned from the existing log.
type Recovery struct {
	// Records are the intact records of all readable segments, in
	// sequence order.
	Records []Record
	// Quarantined lists segments sealed aside for corruption.
	Quarantined []QuarantineReport
	// TornTails counts partially-written tail records truncated (0 or
	// 1 per open in practice; counted for telemetry).
	TornTails int
}

// Options configures Open.
type Options struct {
	// FS is the filesystem to use; nil means the real one. Tests
	// substitute a faultinject.FSInjector.
	FS fsx.FS
	// SegmentBytes is the rotation threshold; 0 means the default
	// (4 MiB).
	SegmentBytes int64
	// Metrics, when set, receives ledger counters (appends, replays,
	// torn tails, quarantines).
	Metrics *obs.Metrics
	// Logf, when set, receives recovery notices (torn tail truncated,
	// segment quarantined).
	Logf func(format string, args ...any)
}

// Ledger is an open write-ahead log. Append is safe for concurrent
// use.
type Ledger struct {
	dir  string
	fs   fsx.FS
	opts Options

	mu      sync.Mutex
	f       fsx.File // current segment, opened for append
	segIdx  int      // index of the current segment
	segSize int64    // bytes written to the current segment
	nextSeq uint64
	frame   []byte // the frame being written, reused
	frozen  bool
	// freezeIn, when positive, counts the frames still to be written
	// before the ledger freezes (FreezeAfter).
	freezeIn int
}

// Open opens (or creates) the ledger in dir, replaying existing
// segments. It returns the open ledger and what recovery found; the
// caller rebuilds its state from Recovery.Records before appending.
func Open(dir string, opts Options) (*Ledger, *Recovery, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = fsx.OS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ledger: mkdir %s: %w", dir, err)
	}

	l := &Ledger{dir: dir, fs: fsys, opts: opts, nextSeq: 1}
	rec, err := l.replay()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openTail(); err != nil {
		return nil, nil, err
	}
	if m := opts.Metrics; m != nil {
		m.LedgerReplayed.Add(int64(len(rec.Records)))
		m.LedgerTornTails.Add(int64(rec.TornTails))
		m.LedgerQuarantines.Add(int64(len(rec.Quarantined)))
	}
	return l, rec, nil
}

func (l *Ledger) segPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%08d.seg", idx))
}

// segments lists existing segment files in index order.
func (l *Ledger) segments() ([]string, error) {
	names, err := l.fs.Glob(filepath.Join(l.dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// segIndex parses the numeric index out of a segment path.
func segIndex(path string) (int, bool) {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "wal-") || !strings.HasSuffix(base, ".seg") {
		return 0, false
	}
	var idx int
	if _, err := fmt.Sscanf(base, "wal-%08d.seg", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// replay reads every segment, applying the repair policy: a bad frame
// at the tail of the LAST segment is truncated (torn write from a
// crash); a bad frame anywhere else quarantines its segment.
func (l *Ledger) replay() (*Recovery, error) {
	segs, err := l.segments()
	if err != nil {
		return nil, fmt.Errorf("ledger: list segments: %w", err)
	}
	rec := &Recovery{}
	var maxSeq uint64
	for i, seg := range segs {
		last := i == len(segs)-1
		idx, ok := segIndex(seg)
		if !ok {
			continue
		}
		if idx >= l.segIdx {
			l.segIdx = idx
		}
		// Another version's segment fails the read, and a directory is
		// one version's: the first segment refuses it untouched.
		records, badOff, badReason, err := readSegment(l.fs, seg)
		if err != nil {
			return nil, err
		}
		switch {
		case badReason == "":
			// Fully intact.
		case last && badReason == "missing segment magic":
			// Crash during segment creation: the header itself is torn.
			// Nothing in the file is usable; remove it and let openTail
			// recreate the segment at the same index.
			if err := l.fs.Remove(seg); err != nil {
				return nil, fmt.Errorf("ledger: remove torn segment %s: %w", seg, err)
			}
			rec.TornTails++
			l.logf("ledger: removed torn empty segment %s (%s)", filepath.Base(seg), badReason)
		case badReason == "bad segment magic" || badReason == "missing segment magic":
			// A sealed segment whose header is wrong is corruption, not
			// a torn append: quarantine it whole.
			if err := l.fs.Rename(seg, seg+".quar"); err != nil {
				return nil, fmt.Errorf("ledger: quarantine %s: %w", seg, err)
			}
			rec.Quarantined = append(rec.Quarantined, QuarantineReport{
				Segment: filepath.Base(seg),
				Offset:  badOff,
				Reason:  badReason,
			})
			l.logf("ledger: quarantined %s (%s)", filepath.Base(seg), badReason)
		case last:
			// Torn tail: the crash tore the final append. Truncate to
			// the last good frame boundary so appends continue.
			if err := l.fs.Truncate(seg, badOff); err != nil {
				return nil, fmt.Errorf("ledger: truncate torn tail of %s: %w", seg, err)
			}
			rec.TornTails++
			l.logf("ledger: truncated torn tail of %s at offset %d (%s)",
				filepath.Base(seg), badOff, badReason)
		default:
			// Corruption in a sealed segment: records after the bad
			// frame are unreachable (framing is lost), so seal the
			// whole segment aside and report it. Records before the
			// corruption were already collected and stay replayed.
			if err := l.fs.Rename(seg, seg+".quar"); err != nil {
				return nil, fmt.Errorf("ledger: quarantine %s: %w", seg, err)
			}
			rec.Quarantined = append(rec.Quarantined, QuarantineReport{
				Segment:     filepath.Base(seg),
				Offset:      badOff,
				Reason:      badReason,
				RecordsKept: len(records),
			})
			l.logf("ledger: quarantined %s (offset %d: %s), %d records kept",
				filepath.Base(seg), badOff, badReason, len(records))
		}
		for _, r := range records {
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
		rec.Records = append(rec.Records, records...)
	}
	sort.SliceStable(rec.Records, func(i, j int) bool {
		return rec.Records[i].Seq < rec.Records[j].Seq
	})
	l.nextSeq = maxSeq + 1
	return rec, nil
}

// readSegment parses one segment file. It returns the intact records,
// and — if a frame failed — the offset of the first bad frame and a
// reason ("" means the segment is fully intact).
func readSegment(fsys fsx.FS, path string) (records []Record, badOff int64, badReason string, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, "", fmt.Errorf("ledger: read %s: %w", path, err)
	}
	if len(data) < len(segMagic) {
		return nil, 0, "missing segment magic", nil
	}
	if magic := string(data[:len(segMagic)]); magic != segMagic {
		for _, old := range oldMagics {
			if magic == old {
				return nil, 0, "", fmt.Errorf("%w: segment %s opens with %s, this build's with %s", ErrVersion, path, old, segMagic)
			}
		}
		return nil, 0, "bad segment magic", nil
	}
	off := int64(len(segMagic))
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return records, off, "truncated frame header", nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxRecordLen {
			return records, off, fmt.Sprintf("implausible record length %d", length), nil
		}
		if len(rest) < 8+int(length) {
			return records, off, "truncated record payload", nil
		}
		payload := rest[8 : 8+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return records, off, "crc mismatch", nil
		}
		r, ok := decodePayload(payload)
		if !ok {
			return records, off, "bad record header", nil
		}
		records = append(records, r)
		off += 8 + int64(length)
	}
	return records, 0, "", nil
}

// decodePayload reads a frame's payload, [uvarint seq][uvarint type
// length][type][data]. The record's data is a sub-slice of the payload.
func decodePayload(p []byte) (r Record, ok bool) {
	seq, k := binary.Uvarint(p)
	n, m := binary.Uvarint(p[max(k, 0):])
	if k <= 0 || m <= 0 || n > uint64(len(p)-k-m) {
		return Record{}, false
	}
	p = p[k+m:]
	r.Seq, r.Type = seq, string(p[:n])
	if len(p) > int(n) {
		r.Data = p[n:]
	}
	return r, true
}

// openTail opens the last segment for appending (creating the first
// segment if the ledger is empty).
func (l *Ledger) openTail() error {
	path := l.segPath(l.segIdx)
	st, err := l.fs.Stat(path)
	switch {
	case err == nil:
		f, oerr := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return fmt.Errorf("ledger: open tail segment: %w", oerr)
		}
		l.f = f
		l.segSize = st.Size()
		return nil
	case os.IsNotExist(err):
		return l.newSegmentLocked()
	default:
		return fmt.Errorf("ledger: stat tail segment: %w", err)
	}
}

// newSegmentLocked creates segment l.segIdx with its magic header and
// fsyncs the directory so the new file survives a crash.
func (l *Ledger) newSegmentLocked() error {
	path := l.segPath(l.segIdx)
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("ledger: write segment magic: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ledger: sync new segment: %w", err)
	}
	if err := fsx.SyncDir(l.fs, l.dir); err != nil {
		f.Close()
		return fmt.Errorf("ledger: sync dir: %w", err)
	}
	l.f = f
	l.segSize = int64(len(segMagic))
	return nil
}

// Entry is one record of an AppendAll group: its type and its data
// (nil: none).
type Entry struct {
	Type string
	Data []byte
}

// Append adds a record whose data is v: a []byte as it is, nil as none,
// and any other value as its JSON. sync forces an fsync before returning
// (commit points — job state transitions — must sync; advisory records
// like grants may ride along with the next sync). The assigned sequence
// number is returned.
func (l *Ledger) Append(recType string, v any, sync bool) (uint64, error) {
	data, ok := v.([]byte)
	if !ok && v != nil {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return 0, fmt.Errorf("ledger: marshal %s: %w", recType, err)
		}
	}
	return l.appendAll(sync, Entry{recType, data})
}

// AppendAll adds the entries as one group commit: every frame is
// written in order, then a single fsync covers them all. A failure
// part-way freezes the ledger with a prefix of the group in the log, so
// recovery sees the first k records of the group for some k — the
// caller must treat a failed group as not committed and a replayed
// prefix as committed.
func (l *Ledger) AppendAll(entries ...Entry) error {
	_, err := l.appendAll(true, entries...)
	return err
}

// appendAll returns the sequence number of the first entry.
func (l *Ledger) appendAll(sync bool, entries ...Entry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.nextSeq
	for _, e := range entries {
		if l.frozen {
			return 0, fmt.Errorf("ledger: frozen")
		}
		if l.f == nil {
			return 0, fmt.Errorf("ledger: closed")
		}
		l.frame = encodeFrame(l.frame[:0], l.nextSeq, e.Type, e.Data)
		frame := l.frame
		// One Write call per frame: a crash mid-write leaves a prefix of
		// the frame, which recovery recognizes as a torn tail.
		if _, err := l.f.Write(frame); err != nil {
			// The tail may now hold a partial frame; recovery will truncate
			// it. Refuse further appends so the caller fails loudly.
			l.frozen = true
			return 0, fmt.Errorf("ledger: append %s: %w", e.Type, err)
		}
		l.segSize += int64(len(frame))
		l.nextSeq++
		if m := l.opts.Metrics; m != nil {
			m.LedgerAppends.Inc()
		}
		if l.freezeIn > 0 {
			if l.freezeIn--; l.freezeIn == 0 {
				l.frozen = true
			}
		}
	}
	if sync {
		if l.frozen {
			return 0, fmt.Errorf("ledger: frozen")
		}
		if err := l.f.Sync(); err != nil {
			l.frozen = true
			return 0, fmt.Errorf("ledger: sync %s: %w", entries[len(entries)-1].Type, err)
		}
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// encodeFrame appends to dst [u32 length][u32 CRC32C][payload] around
// the record, in one pass.
func encodeFrame(dst []byte, seq uint64, recType string, data []byte) []byte {
	start := len(dst)
	frame := append(dst, make([]byte, 8)...)
	frame = binary.AppendUvarint(frame, seq)
	frame = binary.AppendUvarint(frame, uint64(len(recType)))
	frame = append(append(frame, recType...), data...)
	head, payload := frame[start:start+8], frame[start+8:]
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.Checksum(payload, crcTable))
	return frame
}

// rotateLocked seals the current segment (fsync) and starts the next.
func (l *Ledger) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		l.frozen = true
		return fmt.Errorf("ledger: sync before rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.frozen = true
		return fmt.Errorf("ledger: close before rotate: %w", err)
	}
	l.segIdx++
	if err := l.newSegmentLocked(); err != nil {
		l.frozen = true
		return err
	}
	return nil
}

// Sync forces pending appends to disk.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen || l.f == nil {
		return fmt.Errorf("ledger: frozen or closed")
	}
	return l.f.Sync()
}

// Freeze makes every future Append fail without touching the file —
// from the disk's perspective, the process is dead. The crash-recovery
// harness uses it to simulate kill -9 at a precise point.
func (l *Ledger) Freeze() { l.FreezeAfter(0) }

// FreezeAfter is Freeze once frames more frames have been written: the
// kill -9 that lands between the frames of an AppendAll group, or after
// its last frame and before its fsync.
func (l *Ledger) FreezeAfter(frames int) {
	l.mu.Lock()
	if frames <= 0 {
		l.frozen = true
	} else {
		l.freezeIn = frames
	}
	l.mu.Unlock()
}

// Close syncs and closes the tail segment.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	if l.frozen {
		// A frozen ledger's last write may be torn; don't report a
		// clean close.
		return fmt.Errorf("ledger: closed after freeze")
	}
	return serr
}

func (l *Ledger) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}
