package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"fairmc/internal/fsx"
	"fairmc/internal/por"
	"fairmc/internal/search"
)

// A spool entry is one completed shard report persisted to -workdir
// while its job is unreachable: the shard_done record the service would
// write for it (search.ShardDoneRec), its Job naming the program, since
// the options hash leaves the program out. The record's version byte,
// OptionsHash and program tie the entry to the search it belongs to, so
// a stale spool from another build or another run is skipped at replay
// instead of corrupting the merge. A CRC32C footer follows the record.

// spoolFooterMagic opens the 12-byte spool footer:
// "SPCK" + u32 LE payload length + u32 LE CRC32C(payload).
const spoolFooterMagic = "SPCK"

const spoolFooterLen = 12

var spoolCRCTable = crc32.MakeTable(crc32.Castagnoli)

// spoolCorrupt reports one spool file whose footer or checksum failed:
// a torn write or silent corruption, surfaced to the coordinator as a
// WorkerFailure instead of silently dropped or fatally trusted.
type spoolCorrupt struct {
	Shard  int // parsed from the filename; -1 if unparseable
	Name   string
	Reason string
}

func spoolPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("spool-shard-%04d.rec", shard))
}

// spoolShardFromName recovers the shard index from a spool filename, so
// a corrupt entry (whose payload is unreadable) can still name the
// shard it belonged to.
func spoolShardFromName(name string) int {
	var shard int
	if _, err := fmt.Sscanf(filepath.Base(name), "spool-shard-%04d.rec", &shard); err != nil {
		return -1
	}
	return shard
}

// spoolFrame appends the CRC32C footer to a payload.
func spoolFrame(payload []byte) []byte {
	out := make([]byte, len(payload)+spoolFooterLen)
	copy(out, payload)
	f := out[len(payload):]
	copy(f, spoolFooterMagic)
	binary.LittleEndian.PutUint32(f[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[8:12], crc32.Checksum(payload, spoolCRCTable))
	return out
}

// spoolUnframe validates the footer and returns the payload, or a
// reason the entry cannot be trusted.
func spoolUnframe(data []byte) (payload []byte, reason string) {
	if len(data) < spoolFooterLen {
		return nil, "too short for a footer"
	}
	f := data[len(data)-spoolFooterLen:]
	if string(f[:4]) != spoolFooterMagic {
		return nil, "missing CRC footer"
	}
	n := binary.LittleEndian.Uint32(f[4:8])
	if int(n) != len(data)-spoolFooterLen {
		return nil, fmt.Sprintf("footer length %d does not match payload %d", n, len(data)-spoolFooterLen)
	}
	payload = data[:len(data)-spoolFooterLen]
	if crc32.Checksum(payload, spoolCRCTable) != binary.LittleEndian.Uint32(f[8:12]) {
		return nil, "crc mismatch"
	}
	return payload, ""
}

// spoolWrite persists a completed shard report atomically, with a
// CRC32C footer so replay can tell a good entry from a torn or
// corrupted one.
func spoolWrite(fsys fsx.FS, dir string, e *search.ShardDoneRec) error {
	payload, err := e.Encode(nil)
	if err != nil {
		return fmt.Errorf("spool shard %d: %w", e.Shard, err)
	}
	return fsx.WriteFileAtomic(fsys, spoolPath(dir, e.Shard), spoolFrame(payload))
}

// spoolList returns the spooled entries in dir whose options hash and
// program match, in shard order. Entries that fail their checksum are
// returned in corrupt (the caller surfaces them as WorkerFailures);
// entries that belong to a different search are skipped — they are
// someone else's work, not ours to replay or delete.
func spoolList(fsys fsx.FS, dir string, optionsHash uint64, program string) (entries []*search.ShardDoneRec, corrupt []spoolCorrupt, skipped []string, err error) {
	names, err := fsys.Glob(filepath.Join(dir, "spool-shard-*.rec"))
	if err != nil {
		return nil, nil, nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		data, rerr := fsys.ReadFile(name)
		if rerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", filepath.Base(name), rerr))
			continue
		}
		payload, reason := spoolUnframe(data)
		if reason == "" {
			e, derr := search.DecodeShardDone(payload)
			switch {
			case errors.Is(derr, por.ErrVersion):
				skipped = append(skipped, fmt.Sprintf("%s: another version's entry", filepath.Base(name)))
				continue
			case derr != nil:
				reason = fmt.Sprintf("checksummed payload does not decode: %v", derr)
			case e.OptionsHash != optionsHash || e.Job != program:
				skipped = append(skipped, fmt.Sprintf("%s: different search (hash=%#x program=%s)",
					filepath.Base(name), e.OptionsHash, e.Job))
				continue
			case e.Report == nil:
				reason = "checksummed payload holds no report"
			default:
				entries = append(entries, e)
				continue
			}
		}
		corrupt = append(corrupt, spoolCorrupt{
			Shard:  spoolShardFromName(name),
			Name:   filepath.Base(name),
			Reason: reason,
		})
	}
	return entries, corrupt, skipped, nil
}

// spoolRemove deletes a replayed entry.
func spoolRemove(fsys fsx.FS, dir string, shard int) error {
	err := fsys.Remove(spoolPath(dir, shard))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
