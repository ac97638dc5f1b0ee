package synth

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ibsim/internal/atomicio"
	"ibsim/internal/crashfs"
	"ibsim/internal/trace"
)

// Columnar tier of the store: the trace is materialized ON DISK as an
// IBSTRACE/v3 columnar file instead of in memory, and handed back as an
// opened trace.ColumnarFile (mmap when available) for block-granular
// replay. The generator is read as runs (SeekSource) straight into the
// columnar writer, so peak memory is O(block) however long the trace; the
// hard budget is charged at the ACTUAL encoded size as it grows — typically
// well under a byte per instruction, against about 3 for the runs in
// memory — which is what lets Acquire serve exact results from disk for
// workloads whose run list would blow the RAM budget.
//
// Entries are memoized and ref-counted like every other tier; an evicted
// entry closes its mapping and deletes its backing file.

// colSpillBuf is the write-buffer size for spilling a columnar file.
const colSpillBuf = 1 << 16

// Columnar returns prof's instruction trace for (seed, n) as an opened
// on-disk columnar file, memoized across callers. The returned file is
// shared and read-only (safe for concurrent block reads with distinct
// destination buffers); the release function must be called exactly once,
// after which the file handle must not be used. A trace whose columnar
// encoding exceeds the hard budget fails with ErrOverBudget.
func (s *Store) Columnar(ctx context.Context, prof Profile, seed uint64, n int64) (*trace.ColumnarFile, func(), error) {
	e, release, err := s.acquire(ctx, storeKey{prof: prof, seed: seed, n: n, kind: kindColumnar}, func() (payload, error) {
		return s.writeColumnar(prof, seed, n)
	})
	if err != nil {
		return nil, nil, err
	}
	return e.cf, release, nil
}

// spillDir returns the store's columnar spill directory, creating a
// throwaway one on first use when none was configured via SetSpillDir.
func (s *Store) spillDir() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		return s.dir, nil
	}
	dir, err := os.MkdirTemp("", "ibsim-store-")
	if err != nil {
		return "", fmt.Errorf("synth: creating columnar spill dir: %w", err)
	}
	s.dir = dir
	s.dirOwned = true
	return dir, nil
}

// SetSpillDir directs future columnar spills to dir (created as needed)
// instead of a throwaway temp directory. Opening the directory purges every
// stale spill artifact a crashed predecessor left behind — in-flight
// `.trace-*.ibsc.tmp-*` temp files and published `trace-*.ibsc` files alike:
// spill files are only reachable through this store's in-memory entries, so
// anything present at open is an orphan by definition and must never be
// loaded as data. Call before the first spill.
func (s *Store) SetSpillDir(dir string) error {
	fsys := s.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("synth: opening spill dir: %w", err)
	}
	if err := purgeSpillDir(fsys, dir); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir = dir
	s.dirOwned = false
	return nil
}

// SetSpillFS routes the store's spill-file I/O through fsys (nil = the real
// OS) — the crash-consistency torture harness's hook. Call before the first
// spill, together with SetSpillDir.
func (s *Store) SetSpillFS(fsys crashfs.FS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fsys = fsys
}

// fs returns the store's spill filesystem.
func (s *Store) fs() crashfs.FS {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fsys == nil {
		return crashfs.OS()
	}
	return s.fsys
}

// isSpillFile reports a published columnar spill file name.
func isSpillFile(name string) bool {
	return strings.HasPrefix(name, "trace-") && strings.HasSuffix(name, ".ibsc")
}

// purgeSpillDir removes stale spill artifacts — atomicio temp debris and
// orphaned published spill files — from a (re)opened spill directory.
func purgeSpillDir(fsys crashfs.FS, dir string) error {
	if _, err := atomicio.SweepTempsFS(fsys, dir); err != nil {
		return fmt.Errorf("synth: purging spill dir: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("synth: purging spill dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !isSpillFile(e.Name()) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("synth: purging spill dir: %w", err)
		}
	}
	return nil
}

// countWriter counts the bytes written to the spill file, whose final size
// the hard budget is checked against.
type countWriter struct {
	f crashfs.File
	n int64
}

func (w *countWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

// writeColumnar reads prof's instruction stream as runs (the columnar
// blocks decode to exactly the runs RunsOnly would return) and writes it
// block by block to a fresh file in the spill directory, which it then
// opens for reading. The read goes through the store's SeekSource, so the
// pass registers checkpoints and resumes from any memoized runs-only
// prefix.
//
// Publication is crash-safe (atomicio.WriteToFS): the encoding streams into
// a temp file, is fsynced, and only then renamed to its published
// trace-<seq>.ibsc name — so a power failure at any instant leaves either
// sweepable temp debris or a complete, CRC-valid published file, never a
// torn file under a published name.
func (s *Store) writeColumnar(prof Profile, seed uint64, n int64) (payload, error) {
	src, done, err := s.SeekSource(prof, seed, n)
	if err != nil {
		return payload{}, err
	}
	defer done()
	dir, err := s.spillDir()
	if err != nil {
		return payload{}, err
	}
	s.mu.Lock()
	s.spillSeq++
	path := filepath.Join(dir, fmt.Sprintf("trace-%d.ibsc", s.spillSeq))
	s.mu.Unlock()
	fsys := s.fs()
	var size int64
	err = atomicio.WriteToFS(fsys, path, 0o600, func(f crashfs.File) error {
		cw := &countWriter{f: f}
		bw := bufio.NewWriterSize(cw, colSpillBuf)
		w, err := trace.NewColumnarWriter(bw)
		if err != nil {
			return err
		}
		if err := s.spill(src, prof, seed, n, w); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("synth: flushing columnar spill: %w", err)
		}
		if s.hardBudget > 0 && cw.n > s.hardBudget {
			return fmt.Errorf("%w: columnar file needs %d bytes, budget %d",
				ErrOverBudget, cw.n, s.hardBudget)
		}
		size = cw.n
		return nil
	})
	if err != nil {
		return payload{}, err
	}
	cf, err := trace.OpenColumnar(path)
	if err != nil {
		fsys.Remove(path)
		return payload{}, fmt.Errorf("synth: reopening columnar spill: %w", err)
	}
	s.mu.Lock()
	s.stats.Spills++
	s.mu.Unlock()
	return payload{cf: cf, path: path, fileBytes: size}, nil
}

// spill writes src's runs to w, resuming from the longest memoized
// runs-only prefix. The hard budget is checked after every read batch
// against w.Size(), which counts the block w still holds open and what the
// write buffer holds, so a doomed spill fails within one batch past the
// budget rather than after encoding a whole block (1 MiB, millions of
// instructions).
func (s *Store) spill(src *SeekSource, prof Profile, seed uint64, n int64, w *trace.ColumnarWriter) error {
	prefix, start := s.runsPrefix(prof, seed, n)
	put := func(runs []trace.Run) error {
		for _, r := range runs {
			if err := w.PutRun(r); err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(prefix); err != nil {
		return err
	}
	return src.ReadRuns(start, n-start, func(runs []trace.Run) error {
		if err := put(runs); err != nil {
			return err
		}
		if s.hardBudget > 0 && w.Size() > s.hardBudget {
			return fmt.Errorf("%w: columnar encoding of %d instructions already exceeds %d bytes",
				ErrOverBudget, n, s.hardBudget)
		}
		return nil
	})
}
