// Package fsx is the durability seam of the checker: one shared
// implementation of the atomic+fsync write/rename discipline
// (WriteFileAtomic) behind a small filesystem interface (FS) that the
// chaos layer can wrap with injected disk faults.
//
// Every component that persists state — search checkpoints, the
// worker result spool and the job ledger's write-ahead log — goes
// through this package, so the
// crash-safety argument ("a crash at any point leaves either the
// previous file or the new one, never a mix") is made exactly once,
// and internal/faultinject can prove it under torn writes, lost
// renames, and failing fsyncs by substituting FS.
package fsx

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// File is the writable-handle surface persistence code needs: write,
// read (replay paths), fsync, close.
type File interface {
	Write(p []byte) (int, error)
	Read(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem operations surface persistence code needs.
// Production code uses OS; tests substitute a faultinject.FSInjector
// to model torn writes, lost renames, fsync failures, and read
// corruption.
type FS interface {
	// OpenFile opens a file with the given flags (os.O_*).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]fs.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// Truncate cuts a file to size (torn-tail repair).
	Truncate(name string, size int64) error
	// Glob matches files like filepath.Glob.
	Glob(pattern string) ([]string, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }

// tmpSeq distinguishes concurrent temp files within one process; the
// PID distinguishes processes sharing a directory.
var tmpSeq atomic.Int64

// SyncDir fsyncs a directory so a rename (or create/remove) inside it
// survives a crash. Without it the rename itself can be lost, silently
// rolling the file back to its previous contents.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// WriteFileAtomic persists data at path so that a crash at any point
// leaves either the previous file or the new one, never a mix: write
// to a temp file in the destination directory, fsync it, rename over
// the target, then fsync the parent directory. This is the single
// durable-write implementation behind search checkpoints, the worker
// result spool and the job ledger's segment rotation.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, fmt.Sprintf(".%s.tmp-%d-%d",
		filepath.Base(path), os.Getpid(), tmpSeq.Add(1)))
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = fsys.Rename(tmp, path)
	}
	if werr != nil {
		fsys.Remove(tmp)
		return werr
	}
	return SyncDir(fsys, dir)
}
