package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"fairmc/internal/fsx"
	"fairmc/internal/search"
)

// spoolVersion guards the spool file format. Version 2 added the CRC32C
// footer; v1 entries (no footer) are reported as corrupt, which is the
// honest verdict — they were never checksummed.
const spoolVersion = 2

// spoolFooterMagic opens the 12-byte spool footer:
// "SPCK" + u32 LE payload length + u32 LE CRC32C(payload).
const spoolFooterMagic = "SPCK"

const spoolFooterLen = 12

var spoolCRCTable = crc32.MakeTable(crc32.Castagnoli)

// spoolEntry is one completed shard report persisted to -workdir while
// the coordinator is unreachable. OptionsHash ties the entry to the
// search it belongs to, so a stale spool from a different run is
// rejected at replay instead of corrupting the merge.
type spoolEntry struct {
	spoolHead
	Shard  int            `json:"shard"`
	Report *search.Report `json:"report"`
}

// spoolHead names the search a spool entry belongs to. It is read before
// the report: another build's report need not decode in this one.
type spoolHead struct {
	Version     int    `json:"version"`
	OptionsHash uint64 `json:"optionsHash"`
	Program     string `json:"program"`
}

// spoolCorrupt reports one spool file whose footer or checksum failed:
// a torn write or silent corruption, surfaced to the coordinator as a
// WorkerFailure instead of silently dropped or fatally trusted.
type spoolCorrupt struct {
	Shard  int // parsed from the filename; -1 if unparseable
	Name   string
	Reason string
}

func spoolPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("spool-shard-%04d.json", shard))
}

// spoolShardFromName recovers the shard index from a spool filename, so
// a corrupt entry (whose payload is unreadable) can still name the
// shard it belonged to.
func spoolShardFromName(name string) int {
	var shard int
	if _, err := fmt.Sscanf(filepath.Base(name), "spool-shard-%04d.json", &shard); err != nil {
		return -1
	}
	return shard
}

// spoolFrame appends the CRC32C footer to a JSON payload.
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
func spoolWrite(fsys fsx.FS, dir string, e spoolEntry) error {
	e.Version = spoolVersion
	payload, err := json.Marshal(e)
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
func spoolList(fsys fsx.FS, dir string, optionsHash uint64, program string) (entries []spoolEntry, corrupt []spoolCorrupt, skipped []string, err error) {
	names, err := fsys.Glob(filepath.Join(dir, "spool-shard-*.json"))
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
			var head spoolHead
			var e spoolEntry
			if jerr := json.Unmarshal(payload, &head); jerr != nil {
				reason = fmt.Sprintf("checksummed payload is not valid JSON: %v", jerr)
			} else if head != (spoolHead{spoolVersion, optionsHash, program}) {
				skipped = append(skipped, fmt.Sprintf("%s: different search (version=%d hash=%#x program=%s)",
					filepath.Base(name), head.Version, head.OptionsHash, head.Program))
				continue
			} else if jerr := json.Unmarshal(payload, &e); jerr != nil || e.Report == nil {
				reason = "checksummed payload holds no report"
				if jerr != nil {
					reason = fmt.Sprintf("checksummed payload does not decode: %v", jerr)
				}
			} else {
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
