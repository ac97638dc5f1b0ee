// Package manifest persists per-exhibit experiment outputs so an
// interrupted run can resume instead of recomputing. Each completed exhibit
// is written atomically (temp file, fsync, rename) next to a MANIFEST.json
// index keyed by the run parameters; outputs are content-addressed with
// SHA-256 so a corrupted or hand-edited file is recomputed, never trusted.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ibsim/internal/atomicio"
	"ibsim/internal/crashfs"
)

// Schema identifies the manifest file format.
const Schema = "ibsim-manifest/v1"

// indexName is the manifest index file inside the run directory.
const indexName = "MANIFEST.json"

// Params is the run configuration a manifest is keyed by: cached outputs are
// only reused by a run with identical parameters.
type Params struct {
	Instructions int64  `json:"instructions"`
	Trials       int    `json:"trials"`
	Seed         uint64 `json:"seed"`
	CSV          bool   `json:"csv"`
	Chart        bool   `json:"chart"`
}

// entry records one completed exhibit.
type entry struct {
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
}

// index is the MANIFEST.json layout.
type index struct {
	Schema   string           `json:"schema"`
	Params   Params           `json:"params"`
	Exhibits map[string]entry `json:"exhibits"`
}

// Manifest is an open run directory.
type Manifest struct {
	fsys crashfs.FS
	dir  string
	idx  index
}

// Open loads the manifest in dir, creating the directory as needed. An
// existing index with different parameters (or an unknown schema) is
// discarded: its cached outputs belong to a different run and must not be
// reused. Orphaned temp files from a crashed predecessor are swept on open,
// so debris can never shadow or be mistaken for an output. The second return
// reports how many completed exhibits were carried over.
func Open(dir string, params Params) (*Manifest, int, error) {
	return OpenFS(crashfs.OS(), dir, params)
}

// OpenFS is Open through an explicit filesystem — the crash-consistency
// torture harness's entry point; every write the manifest makes goes
// through fsys.
func OpenFS(fsys crashfs.FS, dir string, params Params) (*Manifest, int, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("manifest: %w", err)
	}
	if _, err := atomicio.SweepTempsFS(fsys, dir); err != nil {
		return nil, 0, fmt.Errorf("manifest: %w", err)
	}
	m := &Manifest{fsys: fsys, dir: dir, idx: index{Schema: Schema, Params: params, Exhibits: map[string]entry{}}}
	raw, err := fsys.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		if os.IsNotExist(err) {
			return m, 0, nil
		}
		return nil, 0, fmt.Errorf("manifest: %w", err)
	}
	var old index
	if err := json.Unmarshal(raw, &old); err != nil || old.Schema != Schema || old.Params != params {
		// Unreadable or mismatched index: start fresh rather than resume a
		// different run's outputs.
		return m, 0, nil
	}
	for name, e := range old.Exhibits {
		m.idx.Exhibits[name] = e
	}
	return m, len(m.idx.Exhibits), nil
}

// Len returns the number of completed exhibits on record.
func (m *Manifest) Len() int { return len(m.idx.Exhibits) }

// ErrMissing reports an exhibit the manifest has no completed record of.
var ErrMissing = errors.New("manifest: no completed output on record")

// ErrCorruptOutput reports a recorded output whose on-disk bytes no longer
// match the index digest — a torn write, bit rot, or a hand edit. The
// caller must recompute the exhibit; the stored bytes are never returned.
var ErrCorruptOutput = errors.New("manifest: output does not match recorded digest")

// Get returns the stored output of name, verifying its digest; a missing,
// unreadable, or corrupted output reports false so the caller recomputes it.
func (m *Manifest) Get(name string) (string, bool) {
	out, err := m.Lookup(name)
	return out, err == nil
}

// Lookup is Get with the typed rejection contract: a missing or unindexed
// output returns ErrMissing, an unreadable or digest-mismatched one returns
// ErrCorruptOutput (wrapped with detail). A partial or tampered file is
// never returned as data.
func (m *Manifest) Lookup(name string) (string, error) {
	e, ok := m.idx.Exhibits[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrMissing, name)
	}
	data, err := m.fsys.ReadFile(filepath.Join(m.dir, e.File))
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: %q (indexed file absent)", ErrMissing, name)
		}
		return "", fmt.Errorf("%w: %q: %v", ErrCorruptOutput, name, err)
	}
	if digest(data) != e.SHA256 {
		return "", fmt.Errorf("%w: %q (%d bytes on disk)", ErrCorruptOutput, name, len(data))
	}
	return string(data), nil
}

// Put atomically records name's output: the exhibit file first, then the
// updated index, each via write-temp-fsync-rename, so a crash at any point
// leaves either the previous consistent state or the new one.
func (m *Manifest) Put(name, output string) error {
	file, err := exhibitFile(name)
	if err != nil {
		return err
	}
	data := []byte(output)
	if err := atomicio.WriteFileFS(m.fsys, filepath.Join(m.dir, file), data, 0o644); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	m.idx.Exhibits[name] = entry{File: file, SHA256: digest(data)}
	raw, err := json.MarshalIndent(&m.idx, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if err := atomicio.WriteFileFS(m.fsys, filepath.Join(m.dir, indexName), append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// exhibitFile maps an exhibit name to its output file, rejecting names that
// would escape the run directory.
func exhibitFile(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("manifest: invalid exhibit name %q", name)
	}
	return name + ".out", nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
