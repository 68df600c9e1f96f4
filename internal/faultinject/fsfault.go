package faultinject

// The filesystem half of the chaos layer: a deterministic disk-fault
// injector behind the fsx.FS seam, the counterpart of the HTTP
// injector for the durability code paths (checkpoints, worker spool,
// job ledger).
//
// The scheduling discipline is the HTTP injector's, transplanted:
// every fault decision is a pure function of (seed, rule path pattern,
// per-rule operation ordinal), independent of wall-clock time and
// goroutine interleaving, so a test that replays the same operation
// sequence against the same (seed, scenario) sees the identical fault
// schedule.
//
// Fault kinds:
//
//   - short write: File.Write persists only a prefix of the buffer and
//     returns an error — a torn write, as a crashed or full disk
//     leaves it.
//   - fsync error: File.Sync fails without syncing; the data may or
//     may not be durable, exactly the ambiguity real fsync failures
//     have.
//   - torn rename: FS.Rename reports success but the target keeps its
//     old contents (the temp file is consumed) — what a crash between
//     rename and the parent-directory fsync looks like after reboot.
//   - read corruption: FS.ReadFile returns the data with one
//     deterministic bit flipped — silent media corruption, which the
//     CRC framing of ledger segments and spool entries must catch.

import (
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"

	"fairmc/internal/fsx"
	"fairmc/internal/rng"
)

// Filesystem fault kinds, as reported to OnFault and in Counts.
const (
	KindShortWrite  = "short-write"
	KindSyncErr     = "sync-error"
	KindTornRename  = "torn-rename"
	KindReadCorrupt = "read-corrupt"
)

// FSRule is one line of a filesystem chaos scenario: which paths it
// matches and what misbehavior they get. Probabilities are in [0, 1]
// and are drawn independently, in a fixed order, from the same
// deterministic stream.
type FSRule struct {
	// Path selects files whose path contains this substring; ""
	// matches every file.
	Path string

	ShortWrite  float64 // probability a Write tears (prefix persisted, error returned)
	SyncErr     float64 // probability a Sync fails
	TornRename  float64 // probability a Rename is silently lost
	ReadCorrupt float64 // probability a ReadFile returns one flipped bit
}

// FSScenario is a named set of filesystem fault rules.
type FSScenario struct {
	Name  string
	Rules []FSRule
}

// FSInjector wraps an fsx.FS with a deterministic disk-fault schedule.
// Create with NewFS; safe for concurrent use — concurrency does not
// perturb the schedule because each rule keeps its own operation
// ordinal.
type FSInjector struct {
	seed     uint64
	scenario FSScenario
	base     fsx.FS

	// OnFault, when set, observes every injected fault (by kind).
	// Set before the first operation; typically wired to
	// obs.Metrics.FSFaultsInjected.
	OnFault func(kind string)

	mu     sync.Mutex
	seq    []int // per-rule operation ordinal
	counts map[string]int64
}

// NewFS returns a filesystem fault injector wrapping base (nil means
// fsx.OS) for the given seed and scenario.
func NewFS(seed uint64, sc FSScenario, base fsx.FS) *FSInjector {
	if base == nil {
		base = fsx.OS
	}
	return &FSInjector{
		seed:     seed,
		scenario: sc,
		base:     base,
		seq:      make([]int, len(sc.Rules)),
		counts:   map[string]int64{},
	}
}

// Counts returns how many faults of each kind have been injected.
func (in *FSInjector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected filesystem faults.
func (in *FSInjector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.counts {
		n += v
	}
	return n
}

func (in *FSInjector) note(kind string) {
	in.mu.Lock()
	in.counts[kind]++
	in.mu.Unlock()
	if in.OnFault != nil {
		in.OnFault(kind)
	}
}

// fsVerdict is the decision for one operation under the scenario.
type fsVerdict struct {
	shortWrite  bool
	syncErr     bool
	tornRename  bool
	readCorrupt bool
	corruptBit  uint64 // which bit of the read to flip
}

// decide draws the verdict for the next operation on path; the stream
// is keyed by (seed, rule path pattern, ordinal), matching the HTTP
// injector's (seed, endpoint, ordinal) discipline.
func (in *FSInjector) decide(path string) fsVerdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	var v fsVerdict
	for i, r := range in.scenario.Rules {
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		ord := in.seq[i]
		in.seq[i]++
		g := rng.New(rng.Mix(rng.Mix(in.seed, pathHash(r.Path)), uint64(ord)+1))
		// Fixed draw order so removing one fault kind from a rule does
		// not reshuffle the others (same convention as the HTTP rules).
		pShort := float64(g.Uint64()%1e6) / 1e6
		pSync := float64(g.Uint64()%1e6) / 1e6
		pRename := float64(g.Uint64()%1e6) / 1e6
		pRead := float64(g.Uint64()%1e6) / 1e6
		bit := g.Uint64()

		if pShort < r.ShortWrite {
			v.shortWrite = true
		}
		if pSync < r.SyncErr {
			v.syncErr = true
		}
		if pRename < r.TornRename {
			v.tornRename = true
		}
		if pRead < r.ReadCorrupt {
			v.readCorrupt = true
			v.corruptBit = bit
		}
	}
	return v
}

// FSError is the synthetic error injected for short writes, fsync
// failures, and (never-surfaced) rename losses.
type FSError struct {
	Kind string
	Path string
}

func (e *FSError) Error() string {
	return fmt.Sprintf("faultinject: %s %s", e.Kind, e.Path)
}

// --- fsx.FS implementation ---

var _ fsx.FS = (*FSInjector)(nil)

// OpenFile wraps the handle so Write and Sync draw fault verdicts.
func (in *FSInjector) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, name: name}, nil
}

// ReadFile injects silent corruption: a deterministic bit of the
// returned data is flipped.
func (in *FSInjector) ReadFile(name string) ([]byte, error) {
	data, err := in.base.ReadFile(name)
	if err != nil {
		return data, err
	}
	v := in.decide(name)
	if v.readCorrupt && len(data) > 0 {
		in.note(KindReadCorrupt)
		c := append([]byte(nil), data...)
		pos := v.corruptBit % uint64(len(c)*8)
		c[pos/8] ^= 1 << (pos % 8)
		return c, nil
	}
	return data, nil
}

// Rename injects torn renames: the call reports success but the
// target keeps its previous contents — the post-crash state when the
// parent-directory fsync never happened. The temp source is consumed
// so the caller sees no residue.
func (in *FSInjector) Rename(oldpath, newpath string) error {
	v := in.decide(newpath)
	if v.tornRename {
		in.note(KindTornRename)
		in.base.Remove(oldpath)
		return nil
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *FSInjector) Remove(name string) error                   { return in.base.Remove(name) }
func (in *FSInjector) ReadDir(name string) ([]fs.DirEntry, error) { return in.base.ReadDir(name) }
func (in *FSInjector) MkdirAll(path string, perm os.FileMode) error {
	return in.base.MkdirAll(path, perm)
}
func (in *FSInjector) Stat(name string) (os.FileInfo, error)  { return in.base.Stat(name) }
func (in *FSInjector) Truncate(name string, size int64) error { return in.base.Truncate(name, size) }
func (in *FSInjector) Glob(pattern string) ([]string, error)  { return in.base.Glob(pattern) }

// faultFile wraps a handle with write/sync fault injection.
type faultFile struct {
	in   *FSInjector
	f    fsx.File
	name string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	v := ff.in.decide(ff.name)
	if v.shortWrite {
		ff.in.note(KindShortWrite)
		n := len(p) / 2
		if n > 0 {
			ff.f.Write(p[:n])
		}
		return n, &FSError{Kind: KindShortWrite, Path: ff.name}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

func (ff *faultFile) Sync() error {
	v := ff.in.decide(ff.name)
	if v.syncErr {
		ff.in.note(KindSyncErr)
		return &FSError{Kind: KindSyncErr, Path: ff.name}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
func (ff *faultFile) Name() string { return ff.f.Name() }
