package check

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"ibsim/internal/atomicio"
	"ibsim/internal/crashfs"
	"ibsim/internal/manifest"
	"ibsim/internal/synth"
)

// Crash-consistency torture scenarios (chaos/crash-*): every persistence
// surface in the repo — atomicio writes, manifest checkpoints, columnar
// spills — is run through crashfs.Torture, which power-fails the sequence at
// EVERY durability-relevant op, materializes the post-crash disk under all
// three durability variants (journal-replay loss, torn tails, fully flushed),
// and restarts the owning subsystem against each image. The contract verified
// is the same everywhere: the reader sees a complete old artifact or a
// complete new one, resume recomputes only what is missing, corrupt partials
// are rejected typed and self-heal, and temp debris is swept, never loaded.

// crashInstr is the trace length the spill scenario generates per crash
// point — small, because the sequence reruns once per (op, variant) pair.
const crashInstr = 2_000

// chaosCrashAtomicio power-fails every op of one atomic file replacement
// over existing content: the published path must always read back as exactly
// the old bytes or exactly the new bytes, and a sweep must leave no debris.
func chaosCrashAtomicio() Result {
	const name = "chaos/crash-atomicio"
	oldData := []byte(`{"version":1,"cells":[1,2,3]}` + "\n")
	newData := []byte(`{"version":2,"cells":[4,5,6,7,8]}` + "\n")
	t := crashfs.Torture{
		Setup: func(root string) error {
			return os.WriteFile(filepath.Join(root, "artifact.json"), oldData, 0o644)
		},
		Write: func(fsys crashfs.FS, root string) error {
			return atomicio.WriteFileFS(fsys, filepath.Join(root, "artifact.json"), newData, 0o644)
		},
		Verify: func(img crashfs.Image) error {
			if _, err := atomicio.SweepTemps(img.Dir); err != nil {
				return fmt.Errorf("recovery sweep: %w", err)
			}
			entries, err := os.ReadDir(img.Dir)
			if err != nil {
				return err
			}
			for _, e := range entries {
				if e.Name() != "artifact.json" {
					return fmt.Errorf("unexpected file survived recovery: %s", e.Name())
				}
			}
			got, err := os.ReadFile(filepath.Join(img.Dir, "artifact.json"))
			if err != nil {
				return fmt.Errorf("published artifact unreadable: %w", err)
			}
			if !bytes.Equal(got, oldData) && !bytes.Equal(got, newData) {
				return fmt.Errorf("artifact is neither old nor new (%d bytes): %q", len(got), got)
			}
			return nil
		},
	}
	points, images, err := t.Run()
	if err != nil {
		return fail(name, "%v", err)
	}
	return pass(name, "%d crash points, %d images: always complete old or complete new", points, images)
}

// chaosCrashManifest power-fails every op of two manifest Puts: recovery
// must see each exhibit either exactly as written or as typed-missing (to be
// recomputed), never a blend — and an exhibit indexed later implies every
// earlier one is intact.
func chaosCrashManifest() Result {
	const name = "chaos/crash-manifest"
	params := manifest.Params{Instructions: crashInstr, Trials: 3, Seed: 11}
	outA, outB := "figure-3 exhibit body\n", "figure-4 exhibit body\n"
	t := crashfs.Torture{
		Write: func(fsys crashfs.FS, root string) error {
			m, _, err := manifest.OpenFS(fsys, root, params)
			if err != nil {
				return err
			}
			if err := m.Put("fig3", outA); err != nil {
				return err
			}
			return m.Put("fig4", outB)
		},
		Verify: func(img crashfs.Image) error {
			m, _, err := manifest.Open(img.Dir, params)
			if err != nil {
				return fmt.Errorf("reopening crashed manifest: %w", err)
			}
			check := func(nm, want string) (present bool, err error) {
				got, lerr := m.Lookup(nm)
				if lerr == nil {
					if got != want {
						return false, fmt.Errorf("exhibit %s recovered with wrong content %q", nm, got)
					}
					return true, nil
				}
				if errors.Is(lerr, manifest.ErrMissing) {
					return false, nil
				}
				return false, fmt.Errorf("exhibit %s: want content or ErrMissing, got: %w", nm, lerr)
			}
			hasA, err := check("fig3", outA)
			if err != nil {
				return err
			}
			hasB, err := check("fig4", outB)
			if err != nil {
				return err
			}
			if hasB && !hasA {
				return fmt.Errorf("later exhibit survived while an earlier completed one was lost")
			}
			// Resume must recompute only what is missing and then serve it.
			if !hasA {
				if err := m.Put("fig3", outA); err != nil {
					return fmt.Errorf("re-putting lost exhibit: %w", err)
				}
				if got, err := m.Lookup("fig3"); err != nil || got != outA {
					return fmt.Errorf("re-put exhibit not served: %v", err)
				}
			}
			return walkNoTemps(img.Dir)
		},
	}
	points, images, err := t.Run()
	if err != nil {
		return fail(name, "%v", err)
	}
	return pass(name, "%d crash points, %d images: exhibits exact or typed-missing, resume heals", points, images)
}

// chaosCrashSpill power-fails every op of a columnar spill publication: a
// store reopening the spill directory must purge every artifact a crashed
// predecessor left — temp or published, all orphans by definition — and then
// regenerate the trace cleanly.
func chaosCrashSpill(prof synth.Profile, seed uint64) Result {
	const name = "chaos/crash-spill"
	t := crashfs.Torture{
		Write: func(fsys crashfs.FS, root string) error {
			st := synth.NewStore(0)
			st.SetSpillFS(fsys)
			if err := st.SetSpillDir(filepath.Join(root, "spill")); err != nil {
				return err
			}
			_, release, err := st.Columnar(context.Background(), prof, seed, crashInstr)
			if err != nil {
				return err
			}
			release()
			return nil
		},
		Verify: func(img crashfs.Image) error {
			dir := filepath.Join(img.Dir, "spill")
			st := synth.NewStore(0)
			if err := st.SetSpillDir(dir); err != nil {
				return fmt.Errorf("reopening crashed spill dir: %w", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				return err
			}
			for _, e := range entries {
				return fmt.Errorf("stale spill artifact survived reopen: %s", e.Name())
			}
			cf, release, err := st.Columnar(context.Background(), prof, seed, crashInstr)
			if err != nil {
				return fmt.Errorf("regenerating after crash: %w", err)
			}
			if cf.Refs() != crashInstr {
				release()
				return fmt.Errorf("regenerated spill holds %d refs, want %d", cf.Refs(), crashInstr)
			}
			release()
			return nil
		},
	}
	points, images, err := t.Run()
	if err != nil {
		return fail(name, "%v", err)
	}
	return pass(name, "%d crash points, %d images: orphans purged, regeneration clean", points, images)
}

// walkNoTemps fails if any atomicio temp file survives under root after the
// owning subsystem's recovery ran.
func walkNoTemps(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && atomicio.IsTemp(d.Name()) {
			return fmt.Errorf("temp debris survived recovery: %s", path)
		}
		return nil
	})
}
