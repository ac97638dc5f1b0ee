package experiments

import (
	"context"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// TestMapTracesMatchesSerial is the differential property test for the
// parallel suite runners: mapRuns with the default (parallel) executor
// must return results in profile order, bit-identical to the one-worker
// reference path (Workers: 1). Run under -race to additionally certify the executor is
// data-race free (make race).
func TestMapTracesMatchesSerial(t *testing.T) {
	profiles := ibsProfiles()
	opt := Options{Instructions: 40_000}
	worker := func(_ context.Context, p synth.Profile, src trace.RunReader) ([2]interface{}, error) {
		st, err := simulateCache(cache.Config{Size: 8192, LineSize: 32, Assoc: 1}, src, nil)
		return [2]interface{}{p.Name, st}, err
	}

	serialOpt := opt
	serialOpt.Workers = 1
	want, err := mapRuns(profiles, serialOpt, worker)
	if err != nil {
		t.Fatalf("serial mapRuns: %v", err)
	}
	for trial := 0; trial < 3; trial++ {
		got, err := mapRuns(profiles, opt, worker)
		if err != nil {
			t.Fatalf("parallel mapRuns: %v", err)
		}
		if len(got) != len(profiles) {
			t.Fatalf("got %d results for %d profiles", len(got), len(profiles))
		}
		for i := range got {
			if got[i][0] != profiles[i].Name {
				t.Fatalf("trial %d: result %d is for %v, want profile order (%s)",
					trial, i, got[i][0], profiles[i].Name)
			}
			if got[i] != want[i] {
				t.Fatalf("trial %d: parallel result for %s = %+v, serial = %+v",
					trial, profiles[i].Name, got[i], want[i])
			}
		}
	}
}

// TestMapProfilesMatchesSerial covers the self-generating runner the
// whole-system experiments use.
func TestMapProfilesMatchesSerial(t *testing.T) {
	profiles := specProfiles()
	opt := Options{Instructions: 20_000}
	worker := func(ctx context.Context, p synth.Profile) (Table1Row, error) {
		return DECstationRow(ctx, p, opt.Seed, opt.Instructions)
	}

	serialOpt := opt
	serialOpt.Workers = 1
	want, err := mapProfiles(profiles, serialOpt, worker)
	if err != nil {
		t.Fatalf("serial mapProfiles: %v", err)
	}
	got, err := mapProfiles(profiles, opt, worker)
	if err != nil {
		t.Fatalf("parallel mapProfiles: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("parallel row for %s = %+v, serial = %+v", profiles[i].Name, got[i], want[i])
		}
	}
}

// TestSerialOptionExperiments runs a full exhibit both ways: the rendered
// output (the exact bytes cmd/ibstables would print) must match.
func TestSerialOptionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full-exhibit differential is covered by internal/check in short mode")
	}
	opt := Options{Instructions: 60_000}
	par, err := Table4(opt)
	if err != nil {
		t.Fatalf("parallel Table4: %v", err)
	}
	serialOpt := opt
	serialOpt.Workers = 1
	ser, err := Table4(serialOpt)
	if err != nil {
		t.Fatalf("serial Table4: %v", err)
	}
	if par.Render() != ser.Render() {
		t.Fatalf("Table4 parallel render differs from serial:\n--- parallel\n%s\n--- serial\n%s",
			par.Render(), ser.Render())
	}
}
