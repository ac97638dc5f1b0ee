package sampling

import (
	"errors"
	"math"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

func TestEstimateFromBasics(t *testing.T) {
	clusters := []Cluster{
		{Instructions: 1000, Misses: 50},
		{Instructions: 1000, Misses: 60},
		{Instructions: 1000, Misses: 40},
		{Instructions: 1000, Misses: 55},
	}
	e := EstimateFrom(clusters, 16_000, 0.25)
	if got, want := e.MPI, 205.0/4000.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MPI = %v, want %v", got, want)
	}
	if e.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0 for a non-exhaustive varying sample", e.CI95)
	}
	if e.Clusters != 4 || e.SampledInstructions != 4000 || e.SampledMisses != 205 {
		t.Fatalf("totals wrong: %+v", e)
	}
	if math.Abs(e.Coverage-0.25) > 1e-12 {
		t.Fatalf("coverage = %v", e.Coverage)
	}
	if !e.Contains(e.MPI) {
		t.Fatal("interval excludes its own center")
	}
	if e.RelCI95() <= 0 {
		t.Fatal("relative CI not positive")
	}
}

func TestEstimateFromExhaustiveHasNoError(t *testing.T) {
	clusters := []Cluster{
		{Instructions: 500, Misses: 10},
		{Instructions: 500, Misses: 90},
	}
	e := EstimateFrom(clusters, 1000, 1)
	if e.CI95 != 0 {
		t.Fatalf("exhaustive sample CI95 = %v, want 0", e.CI95)
	}
	if e.Coverage != 1 {
		t.Fatalf("coverage = %v", e.Coverage)
	}
}

func TestEstimateFromSingleClusterConservative(t *testing.T) {
	e := EstimateFrom([]Cluster{{Instructions: 100, Misses: 7}}, 1000, 0.1)
	if e.CI95 != e.MPI {
		t.Fatalf("single-cluster CI95 = %v, want ±100%% (= MPI %v)", e.CI95, e.MPI)
	}
}

func TestEstimateFromEmpty(t *testing.T) {
	e := EstimateFrom(nil, 1000, 0.1)
	if e.MPI != 0 || e.CI95 != 0 || e.Clusters != 0 {
		t.Fatalf("empty estimate non-zero: %+v", e)
	}
	// Zero-size clusters are ignored, not divided by.
	e = EstimateFrom([]Cluster{{Instructions: 0, Misses: 5}}, 1000, 0.1)
	if e.Clusters != 0 || e.MPI != 0 {
		t.Fatalf("zero-size cluster counted: %+v", e)
	}
}

func TestEstimateCIShrinksWithClusters(t *testing.T) {
	// Same per-cluster dispersion, more clusters: the interval must tighten
	// (t smaller, n larger).
	base := []Cluster{{1000, 50}, {1000, 70}, {1000, 30}, {1000, 50}}
	few := EstimateFrom(base, 100_000, 0.04)
	many := EstimateFrom(append(append(append([]Cluster{}, base...), base...), base...), 100_000, 0.12)
	if many.CI95 >= few.CI95 {
		t.Fatalf("CI did not shrink: %v (4 clusters) vs %v (12)", few.CI95, many.CI95)
	}
}

func TestEstimateFPCNarrowsInterval(t *testing.T) {
	clusters := []Cluster{{1000, 50}, {1000, 70}, {1000, 30}, {1000, 50}}
	loose := EstimateFrom(clusters, 40_000, 0.1)
	tight := EstimateFrom(clusters, 5_000, 0.8)
	if tight.CI95 >= loose.CI95 {
		t.Fatalf("finite-population correction did not narrow: f=0.8 CI %v vs f=0.1 CI %v",
			tight.CI95, loose.CI95)
	}
}

func TestTCrit95(t *testing.T) {
	if got := tCrit95(1); got != 12.706 {
		t.Fatalf("t(1) = %v", got)
	}
	if got := tCrit95(30); got != 2.042 {
		t.Fatalf("t(30) = %v", got)
	}
	if got := tCrit95(1000); got != 1.96 {
		t.Fatalf("t(1000) = %v", got)
	}
	if !math.IsInf(tCrit95(0), 1) {
		t.Fatal("t(0) finite")
	}
}

func TestErrorZeroBaseline(t *testing.T) {
	// A single instruction is one compulsory miss for the full trace, so use
	// an empty trace: zero misses, zero baseline.
	_, _, _, err := Error(cfg8k, trace.NewRunReader(nil), Plan{Window: 1, Period: 2, Mode: Warm})
	if !errors.Is(err, ErrZeroBaseline) {
		t.Fatalf("err = %v, want ErrZeroBaseline", err)
	}
}

// TestWarmFullCoverageBitIdentical pins the pos %% plan.Period window
// accounting: a warm plan with Window == Period measures every instruction,
// so for randomized profiles, seeds, and window sizes the sampled counters
// must be bit-identical to direct simulation.
func TestWarmFullCoverageBitIdentical(t *testing.T) {
	names := synth.Names()
	rng := xrand.New(0xb17e)
	for trial := 0; trial < 8; trial++ {
		name := names[rng.Intn(len(names))]
		p, err := synth.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Uint64()
		n := int64(10_000 + rng.Intn(40_000))
		w := int64(1 + rng.Intn(7_000))
		refs, err := synth.InstrTrace(p, seed, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg8k, reader(refs), Plan{Window: w, Period: w, Mode: Warm})
		if err != nil {
			t.Fatal(err)
		}
		c := cache.MustNew(cfg8k)
		var misses, instr int64
		for _, r := range refs {
			if r.Kind != trace.IFetch {
				continue
			}
			instr++
			if !c.Access(r.Addr) {
				misses++
			}
		}
		if res.SampledMisses != misses || res.SampledInstructions != instr {
			t.Fatalf("trial %d (%s seed %#x n %d window %d): sampled %d/%d, exact %d/%d",
				trial, name, seed, n, w, res.SampledMisses, res.SampledInstructions, misses, instr)
		}
		if res.Coverage() != 1 {
			t.Fatalf("trial %d: coverage %v", trial, res.Coverage())
		}
	}
}
