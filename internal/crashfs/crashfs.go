// Package crashfs is the crash-consistency torture layer under every
// persistence path in the repository: a small filesystem interface (create,
// write, sync, close, rename, remove, read, directory sync) with two
// implementations — the real OS, and a power-failure simulator that counts
// every durability-relevant operation, kills the power at a chosen one, and
// then materializes what a journaling filesystem would actually have on disk
// after the crash.
//
// The model distinguishes three kinds of durability:
//
//   - File DATA is durable only up to the last fsync. Bytes written after it
//     may survive in full (the kernel wrote them back), as a torn prefix, or
//     not at all.
//   - An fsync also makes the file's directory entry at its CURRENT path
//     durable (the ext4/xfs behavior every atomic-rename scheme relies on).
//   - NAMESPACE operations — a rename into place, a remove — are durable
//     only once the parent directory has been fsynced. Until then a crash
//     can expose the pre-rename world: the published name still holds the
//     old artifact and the temp file survives as debris.
//
// Materialize renders a crashed image under each of three variants (Lost,
// Torn, Flushed — see Variant), so a recovery path is exercised against the
// full range of states one power cut can leave. The Torture driver
// enumerates every operation of a recorded write sequence as a crash point.
//
// The simulator assumes append-only writes (every persistence path in this
// repository creates a fresh temp file and never seeks backwards), and it is
// exact for the create→write→fsync→rename→dirsync discipline those paths
// follow.
package crashfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable-file surface persistence paths use. The OS
// implementation wraps *os.File.
type File interface {
	io.Writer
	// Name returns the file's path.
	Name() string
	// Chmod sets the file mode.
	Chmod(mode os.FileMode) error
	// Sync flushes the file's data to stable storage. After a successful
	// Sync the content written so far survives any crash.
	Sync() error
	// Close closes the file. Close does NOT imply durability.
	Close() error
}

// FS is the filesystem surface the persistence subsystems write through:
// internal/atomicio, the synth columnar spill and the run manifest all take
// one, so a single fault injector underneath them can power-fail any
// operation.
type FS interface {
	// MkdirAll creates a directory path with all missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Create creates (or truncates) the named file.
	Create(name string) (File, error)
	// CreateTemp creates a uniquely-named file in dir (os.CreateTemp
	// pattern semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath. Durable only after
	// SyncDir on the parent directory.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadFile reads the named file in full.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the named directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory, committing the renames, creates, and
	// removes inside it. Implementations may treat it as best-effort on
	// filesystems that reject directory fsync.
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

// osFile wraps *os.File; OSFile exposes the underlying handle for callers
// that need the concrete type (atomicio's legacy WriteTo signature).
type osFile struct{ f *os.File }

func (w osFile) Write(p []byte) (int, error)  { return w.f.Write(p) }
func (w osFile) Name() string                 { return w.f.Name() }
func (w osFile) Chmod(mode os.FileMode) error { return w.f.Chmod(mode) }
func (w osFile) Sync() error                  { return w.f.Sync() }
func (w osFile) Close() error                 { return w.f.Close() }

// OSFile returns the wrapped *os.File.
func (w osFile) OSFile() *os.File { return w.f }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// SyncDir on the real filesystem is best effort: some filesystems (and all
// of Windows) reject directory fsync, and rename atomicity does not depend
// on it.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	d.Sync()
	d.Close()
	return nil
}
