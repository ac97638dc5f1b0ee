package sweep

import (
	"context"
	"math"
	"testing"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

func testRuns(t *testing.T, name string, seed uint64, n int64) []trace.Run {
	t.Helper()
	p, err := synth.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Compact(refs)
}

func sampledGrid() []Cell {
	return []Cell{
		{Sets: 32, Assoc: 1}, {Sets: 64, Assoc: 1}, {Sets: 256, Assoc: 1},
		{Sets: 1024, Assoc: 1}, {Sets: 64, Assoc: 2}, {Sets: 256, Assoc: 4},
	}
}

// A sampled pass with no sampling dimensions enabled is the exact sweep:
// misses bit-identical to Pass.Run over the expanded trace, CI 0.
func TestSampledExhaustiveBitIdentical(t *testing.T) {
	for _, name := range []string{"gs", "sdet", "mpeg_play"} {
		runs := testRuns(t, name, 7, 150_000)
		refs := trace.Expand(runs)
		exact, err := Pass{LineSize: 32, Cells: sampledGrid(), CountDistinct: true}.Run(refs)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := SampledPass{LineSize: 32, Cells: sampledGrid(), CountDistinct: true}.Run(runs)
		if err != nil {
			t.Fatal(err)
		}
		if sm.SampledInstructions != exact.Accesses || sm.TotalInstructions != exact.Accesses {
			t.Fatalf("%s: sampled %d/%d instructions, exact %d", name,
				sm.SampledInstructions, sm.TotalInstructions, exact.Accesses)
		}
		if sm.Distinct != exact.Distinct {
			t.Fatalf("%s: distinct %d, exact %d", name, sm.Distinct, exact.Distinct)
		}
		for i := range sm.Misses {
			if sm.Misses[i] != exact.Misses[i] {
				t.Fatalf("%s cell %d: sampled %d misses, exact %d", name, i, sm.Misses[i], exact.Misses[i])
			}
			est := sm.Estimates[i]
			if est.CI95 != 0 || est.Coverage != 1 {
				t.Fatalf("%s cell %d: exhaustive estimate has CI %v coverage %v", name, i, est.CI95, est.Coverage)
			}
			want := float64(exact.Misses[i]) / float64(exact.Accesses)
			if math.Abs(est.MPI-want) > 1e-12 {
				t.Fatalf("%s cell %d: MPI %v, want %v", name, i, est.MPI, want)
			}
		}
	}
}

// Window == Period measures everything: still bit-identical to exact.
func TestSampledFullWindowBitIdentical(t *testing.T) {
	runs := testRuns(t, "gs", 3, 100_000)
	exact, err := Pass{LineSize: 32, Cells: sampledGrid()}.Run(trace.Expand(runs))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := SampledPass{LineSize: 32, Cells: sampledGrid(), Window: 5000, Period: 5000, Warm: true}.Run(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sm.Misses {
		if sm.Misses[i] != exact.Misses[i] {
			t.Fatalf("cell %d: %d misses, exact %d", i, sm.Misses[i], exact.Misses[i])
		}
	}
	if sm.Coverage() != 1 {
		t.Fatalf("coverage %v", sm.Coverage())
	}
}

// Set sampling is exact within the sampled subset: the measured misses must
// be bit-identical to an exact sweep over only the matching lines, for every
// geometry with Sets >= SetMod.
func TestSampledSetSubsetExact(t *testing.T) {
	rng := xrand.New(0x5e7)
	for trial := 0; trial < 4; trial++ {
		mod := 4 << rng.Intn(3) // 4, 8, 16
		match := rng.Intn(mod)
		runs := testRuns(t, []string{"gs", "jpeg_play"}[trial%2], rng.Uint64(), 120_000)
		refs := trace.Expand(runs)
		cells := []Cell{
			{Sets: mod, Assoc: 1}, {Sets: 4 * mod, Assoc: 2}, {Sets: 64 * mod, Assoc: 1},
		}
		// Reference: exact sweep over only the sampled congruence class.
		var filtered []trace.Ref
		for _, r := range refs {
			if int(r.Addr>>5)&(mod-1) == match {
				filtered = append(filtered, r)
			}
		}
		exact, err := Pass{LineSize: 32, Cells: cells}.Run(filtered)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := SampledPass{LineSize: 32, Cells: cells, SetMod: mod, SetMatch: match}.Run(runs)
		if err != nil {
			t.Fatal(err)
		}
		if sm.SampledInstructions != exact.Accesses {
			t.Fatalf("trial %d: sampled %d instructions, subset has %d", trial, sm.SampledInstructions, exact.Accesses)
		}
		for i := range sm.Misses {
			if sm.Misses[i] != exact.Misses[i] {
				t.Fatalf("trial %d (mod %d match %d) cell %d: sampled %d misses, subset-exact %d",
					trial, mod, match, i, sm.Misses[i], exact.Misses[i])
			}
		}
		for i, est := range sm.Estimates {
			if est.CI95 <= 0 {
				t.Fatalf("trial %d cell %d: set-sampled estimate has no interval: %+v", trial, i, est)
			}
			if math.Abs(est.Coverage-1/float64(mod)) > 0.2/float64(mod) {
				t.Fatalf("trial %d cell %d: coverage %v, want ~1/%d", trial, i, est.Coverage, mod)
			}
		}
	}
}

// Satellite: sampled rows still satisfy the sweep invariants within their
// subset — misses never increase with associativity at fixed sets, nor with
// sets at fixed associativity (generalized stack inclusion holds per set, so
// it holds on any whole-set subset).
func TestSampledSubsetInvariants(t *testing.T) {
	sets := []int{16, 32, 64, 128, 256, 512}
	assocs := []int{1, 2, 4}
	var cells []Cell
	for _, s := range sets {
		for _, a := range assocs {
			cells = append(cells, Cell{Sets: s, Assoc: a})
		}
	}
	idx := func(si, ai int) int { return si*len(assocs) + ai }
	for _, name := range []string{"gs", "sdet", "verilog"} {
		runs := testRuns(t, name, 11, 150_000)
		sm, err := SampledPass{LineSize: 32, Cells: cells, SetMod: 16, SetMatch: 5}.Run(runs)
		if err != nil {
			t.Fatal(err)
		}
		for si := range sets {
			for ai := range assocs {
				if ai > 0 {
					lo, hi := sm.Misses[idx(si, ai)], sm.Misses[idx(si, ai-1)]
					if lo > hi {
						t.Errorf("%s: misses increased with associativity at %d sets: %d-way %d > %d-way %d",
							name, sets[si], assocs[ai], lo, assocs[ai-1], hi)
					}
				}
				if si > 0 {
					lo, hi := sm.Misses[idx(si, ai)], sm.Misses[idx(si-1, ai)]
					if lo > hi {
						t.Errorf("%s: misses increased with sets at %d-way: %d sets %d > %d sets %d",
							name, assocs[ai], sets[si], lo, sets[si-1], hi)
					}
				}
			}
		}
	}
}

// Warm time sampling tracks the exact MPI more closely than skipping
// unmeasured spans (which leaves stacks stale), and both report honest
// coverage.
func TestSampledTimeWarmVsSkip(t *testing.T) {
	runs := testRuns(t, "gs", 0, 400_000)
	cells := []Cell{{Sets: 256, Assoc: 1}}
	exact, err := Pass{LineSize: 32, Cells: cells}.Run(trace.Expand(runs))
	if err != nil {
		t.Fatal(err)
	}
	exactMPI := float64(exact.Misses[0]) / float64(exact.Accesses)
	warm, err := SampledPass{LineSize: 32, Cells: cells, Window: 5_000, Period: 20_000, Warm: true}.Run(runs)
	if err != nil {
		t.Fatal(err)
	}
	skip, err := SampledPass{LineSize: 32, Cells: cells, Window: 5_000, Period: 20_000}.Run(runs)
	if err != nil {
		t.Fatal(err)
	}
	warmErr := math.Abs(warm.Estimates[0].MPI - exactMPI)
	skipErr := math.Abs(skip.Estimates[0].MPI - exactMPI)
	if warmErr > 0.1*exactMPI {
		t.Fatalf("warm sampling off by %.1f%% of exact", 100*warmErr/exactMPI)
	}
	if skipErr < warmErr {
		t.Logf("note: skip (%.4g) beat warm (%.4g) on this seed", skipErr, warmErr)
	}
	for _, sm := range []*SampledMatrix{warm, skip} {
		if c := sm.Coverage(); math.Abs(c-0.25) > 0.01 {
			t.Fatalf("coverage %v, want ~0.25", c)
		}
		if sm.Estimates[0].Clusters < 10 {
			t.Fatalf("only %d window clusters", sm.Estimates[0].Clusters)
		}
	}
	if !warm.Estimates[0].Contains(exactMPI) && warmErr > 2*warm.Estimates[0].CI95 {
		t.Fatalf("exact MPI %v far outside warm interval %v ± %v", exactMPI, warm.Estimates[0].MPI, warm.Estimates[0].CI95)
	}
}

func TestSampledValidation(t *testing.T) {
	runs := testRuns(t, "gs", 0, 1000)
	cells := []Cell{{Sets: 64, Assoc: 1}}
	for _, p := range []SampledPass{
		{LineSize: 2, Cells: cells},                            // line < instruction
		{LineSize: 32, Cells: cells, SetMod: 3},                // non-power-of-two mod
		{LineSize: 32, Cells: cells, SetMod: 16, SetMatch: 16}, // match out of range
		{LineSize: 32, Cells: cells, SetMod: 128},              // mod > sets
		{LineSize: 32, Cells: cells, SetMatch: 3},              // match without mod
		{LineSize: 32, Cells: cells, Period: 100},              // period without window
		{LineSize: 32, Cells: cells, Window: 200, Period: 100}, // window > period
		{LineSize: 32, Cells: nil},                             // empty grid
		{LineSize: 33, Cells: cells},                           // non-power-of-two line
	} {
		if _, err := p.Run(runs); err == nil {
			t.Errorf("invalid pass %+v accepted", p)
		}
	}
}

func TestSampledCancellation(t *testing.T) {
	runs := testRuns(t, "gs", 0, 50_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (SampledPass{LineSize: 32, Cells: sampledGrid(), Ctx: ctx}).Run(runs); err == nil {
		t.Fatal("cancelled pass completed")
	}
}

// The estimator's honesty on this grid: at 1/16 set sampling the exact MPI
// should fall inside the stated 95% interval for the strong majority of
// cells (the full nominal-rate check is internal/check's sampling/bounds-* checks).
func TestSampledSetEstimateCoversExact(t *testing.T) {
	runs := testRuns(t, "mpeg_play", 2, 200_000)
	refs := trace.Expand(runs)
	cells := []Cell{{Sets: 256, Assoc: 1}, {Sets: 512, Assoc: 1}, {Sets: 1024, Assoc: 1}, {Sets: 512, Assoc: 2}}
	exact, err := Pass{LineSize: 32, Cells: cells}.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := SampledPass{LineSize: 32, Cells: cells, SetMod: 16, SetMatch: 9}.Run(runs)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range cells {
		exactMPI := float64(exact.Misses[i]) / float64(exact.Accesses)
		if sm.Estimates[i].Contains(exactMPI) {
			hits++
		}
	}
	if hits < len(cells)-1 {
		t.Fatalf("exact MPI inside CI for only %d/%d cells", hits, len(cells))
	}
}
