// Package atomicio provides crash-safe file writes: content lands in a
// temporary file in the destination directory, is flushed to stable storage,
// and is renamed into place. A reader therefore observes either the old file
// or the complete new one — never a torn intermediate — and an interrupt
// (SIGINT mid-run, a crash, a full disk) can at worst leave a stray .tmp
// file, not a corrupt artifact. The run-manifest checkpoints, the rendered
// exhibit outputs and generated trace files all go through this package.
//
// Every write path has an FS-parameterized variant (WriteFileFS, WriteToFS,
// SweepTempsFS) taking an internal/crashfs filesystem, so the
// crash-consistency torture harness can power-fail any individual create,
// write, fsync, or rename and verify the old-or-new contract actually holds
// at that point. The plain functions use the real OS.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ibsim/internal/crashfs"
)

// WriteFile atomically replaces path with data: write-temp, fsync, rename.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(crashfs.OS(), path, data, perm)
}

// WriteFileFS is WriteFile through an explicit filesystem.
func WriteFileFS(fsys crashfs.FS, path string, data []byte, perm os.FileMode) error {
	return WriteToFS(fsys, path, perm, func(f crashfs.File) error {
		_, err := f.Write(data)
		return err
	})
}

// WriteTo streams content into path via fn, atomically: fn receives a
// temporary file in path's directory (it may write and seek freely); on
// success the file is fsynced and renamed over path. On any error the
// temporary file is removed and path is untouched.
func WriteTo(path string, perm os.FileMode, fn func(f *os.File) error) error {
	return WriteToFS(crashfs.OS(), path, perm, func(f crashfs.File) error {
		return fn(f.(interface{ OSFile() *os.File }).OSFile())
	})
}

// WriteToFS is WriteTo through an explicit filesystem; fn receives the
// filesystem's File instead of a raw *os.File.
func WriteToFS(fsys crashfs.FS, path string, perm os.FileMode, fn func(f crashfs.File) error) (err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: creating temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp)
		}
	}()
	if err = fn(f); err != nil {
		return err
	}
	if err = f.Chmod(perm); err != nil {
		return fmt.Errorf("atomicio: chmod: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicio: fsync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicio: close: %w", err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicio: rename into place: %w", err)
	}
	fsys.SyncDir(dir) // best effort: persist the rename itself
	return nil
}

// IsTemp reports whether a directory entry name is one of this package's
// in-flight temporary files — debris a crash between create and rename can
// leave behind. The published artifact a temp file was staging never matches.
func IsTemp(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-")
}

// SweepTemps removes orphaned temp files from dir — the cleanup every
// durable store runs when it (re)opens its directory, so debris from a
// crashed predecessor never accumulates and can never be confused for data.
// A missing directory sweeps zero files. It returns how many were removed.
func SweepTemps(dir string) (int, error) {
	return SweepTempsFS(crashfs.OS(), dir)
}

// SweepTempsFS is SweepTemps through an explicit filesystem.
func SweepTempsFS(fsys crashfs.FS, dir string) (int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("atomicio: sweeping %s: %w", dir, err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !IsTemp(e.Name()) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, fmt.Errorf("atomicio: sweeping %s: %w", dir, err)
		}
		removed++
	}
	return removed, nil
}
