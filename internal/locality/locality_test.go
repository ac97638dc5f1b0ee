package locality

import (
	"math"
	"strings"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

func iref(addr uint64) trace.Ref { return trace.Ref{Addr: addr, Kind: trace.IFetch} }

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("line size 0 accepted")
	}
	if _, err := New(24); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := New(32); err != nil {
		t.Errorf("32 rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(3)
}

func TestFootprint(t *testing.T) {
	a := MustNew(32)
	a.Observe(iref(0))
	a.Observe(iref(4))  // same line
	a.Observe(iref(32)) // second line
	a.Observe(trace.Ref{Addr: 0x80000000, Kind: trace.IFetch, Domain: trace.Kernel})
	if a.Footprint() != 3*32 {
		t.Fatalf("Footprint = %d", a.Footprint())
	}
	if a.DomainFootprint(trace.User) != 2*32 {
		t.Fatalf("user footprint = %d", a.DomainFootprint(trace.User))
	}
	if a.DomainFootprint(trace.Kernel) != 32 {
		t.Fatalf("kernel footprint = %d", a.DomainFootprint(trace.Kernel))
	}
	if a.Instructions() != 4 {
		t.Fatalf("Instructions = %d", a.Instructions())
	}
}

func TestRunLengths(t *testing.T) {
	a := MustNew(32)
	// Two runs of 8, then a run of 4 (still open).
	for i := 0; i < 8; i++ {
		a.Observe(iref(uint64(i) * 4))
	}
	for i := 0; i < 8; i++ {
		a.Observe(iref(0x1000 + uint64(i)*4))
	}
	for i := 0; i < 4; i++ {
		a.Observe(iref(0x2000 + uint64(i)*4))
	}
	// 20 instructions over 3 runs (2 closed + 1 open).
	if got := a.MeanRunLength(); math.Abs(got-20.0/3.0) > 1e-9 {
		t.Fatalf("MeanRunLength = %v", got)
	}
	hist := a.RunHistogram()
	if hist[3] != 2 { // two completed runs of 8 land in bucket [8,16)
		t.Fatalf("run histogram = %v", hist)
	}
}

func TestColdFraction(t *testing.T) {
	a := MustNew(32)
	for i := 0; i < 10; i++ {
		a.Observe(iref(uint64(i) * 32))
	}
	if a.ColdFraction() != 1.0 {
		t.Fatalf("all-distinct stream cold fraction = %v", a.ColdFraction())
	}
	for i := 0; i < 10; i++ {
		a.Observe(iref(uint64(i) * 32))
	}
	if a.ColdFraction() != 0.5 {
		t.Fatalf("cold fraction = %v", a.ColdFraction())
	}
}

// MissRatioAt must agree with a simulated fully-associative LRU cache at
// power-of-two sizes (where the log2 bucketing is exact).
func TestMissRatioMatchesSimulation(t *testing.T) {
	p, err := synth.Lookup("espresso")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(32)
	for _, r := range refs {
		a.Observe(r)
	}
	for _, kb := range []int{8, 32, 128} {
		c := cache.MustNew(cache.Config{Size: kb * 1024, LineSize: 32, Assoc: 0})
		for _, r := range refs {
			c.Access(r.Addr)
		}
		sim := c.Stats().MissRatio()
		got := a.MissRatioAt(kb * 1024)
		// Bucketed distances: exact when the line count is a power of two.
		if math.Abs(got-sim) > 0.1*sim+1e-4 {
			t.Errorf("%dKB: histogram miss ratio %.5f vs simulated %.5f", kb, got, sim)
		}
	}
}

func TestMissRatioMonotone(t *testing.T) {
	p, _ := synth.Lookup("gs")
	refs, _ := synth.InstrTrace(p, 0, 100_000)
	a := MustNew(32)
	for _, r := range refs {
		a.Observe(r)
	}
	prev := 1.0
	for kb := 4; kb <= 1024; kb *= 2 {
		mr := a.MissRatioAt(kb * 1024)
		if mr > prev+1e-12 {
			t.Fatalf("miss ratio rose at %dKB: %v > %v", kb, mr, prev)
		}
		prev = mr
	}
}

func TestWorkingSet(t *testing.T) {
	// A tight loop over 64 lines: working set = 64 lines exactly.
	a := MustNew(32)
	for pass := 0; pass < 50; pass++ {
		for l := 0; l < 64; l++ {
			a.Observe(iref(uint64(l) * 32))
		}
	}
	ws := a.WorkingSet(0.05)
	if ws != 64*32 {
		t.Fatalf("WorkingSet = %d, want %d", ws, 64*32)
	}
}

func TestAnalyzeFiltersData(t *testing.T) {
	refs := []trace.Ref{
		iref(0),
		{Addr: 0x9000, Kind: trace.DRead},
		iref(4),
	}
	a, err := Analyze(32, refs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Instructions() != 2 {
		t.Fatalf("Instructions = %d (data ref counted?)", a.Instructions())
	}
}

func TestIBSvsSPECLocality(t *testing.T) {
	analyze := func(name string) *Analysis {
		p, err := synth.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := synth.InstrTrace(p, 0, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		a := MustNew(32)
		for _, r := range refs {
			a.Observe(r)
		}
		return a
	}
	ibs := analyze("gs")
	spec := analyze("eqntott")
	if ibs.Footprint() < 4*spec.Footprint() {
		t.Errorf("IBS footprint (%d) not ≫ SPEC (%d)", ibs.Footprint(), spec.Footprint())
	}
	if ibs.MissRatioAt(8192) < 3*spec.MissRatioAt(8192) {
		t.Errorf("IBS 8KB LRU miss ratio (%.4f) not ≫ SPEC (%.4f)",
			ibs.MissRatioAt(8192), spec.MissRatioAt(8192))
	}
	// SPEC's loops produce longer mean runs than... actually both have
	// similar micro-run structure; just sanity-bound the values.
	if r := ibs.MeanRunLength(); r < 2 || r > 100 {
		t.Errorf("implausible mean run length %v", r)
	}
}

func TestReport(t *testing.T) {
	p, _ := synth.Lookup("nroff")
	refs, _ := synth.InstrTrace(p, 0, 50_000)
	a := MustNew(32)
	for _, r := range refs {
		a.Observe(r)
	}
	rep := a.Report()
	for _, want := range []string{"footprint", "run length", "8 KB", "working set"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestEmptyAnalysis(t *testing.T) {
	a := MustNew(32)
	if a.MissRatioAt(8192) != 0 || a.MeanRunLength() != 0 || a.ColdFraction() != 0 {
		t.Fatal("empty analysis not zero")
	}
}
