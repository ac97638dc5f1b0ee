package synth

import (
	"math"
	"strings"
	"testing"

	"ibsim/internal/trace"
)

func testProfile() Profile {
	p := Profile{
		Name:        "test",
		Description: "test workload",
		OS:          Microkernel,
		Seed:        99,
		Data:        DataProfile{LoadFrac: 0.2, StoreFrac: 0.1, StreamFrac: 0.1, HeapPages: 32},
	}
	p.Domains[trace.User] = DomainProfile{
		TimeShare: 0.6, Procs: 50, MeanProcBytes: 256, Theta: 1.4,
		LoopProb: 0.4, MeanLoopIter: 4, MeanLoopFrac: 0.3,
		CallProb: 0.02, SkipProb: 0.1, MeanResidency: 1000,
	}
	p.Domains[trace.Kernel] = DomainProfile{
		TimeShare: 0.4, Procs: 30, MeanProcBytes: 256, Theta: 1.4,
		LoopProb: 0.3, MeanLoopIter: 3, MeanLoopFrac: 0.3,
		CallProb: 0.02, SkipProb: 0.1, MeanResidency: 400,
	}
	return p
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Domains[trace.User].TimeShare = -0.1 },
		func(p *Profile) { p.Domains[trace.User].Procs = 0 },
		func(p *Profile) { p.Domains[trace.User].MeanProcBytes = 32 },
		func(p *Profile) { p.Domains[trace.User].Theta = 0 },
		func(p *Profile) { p.Domains[trace.User].LoopProb = 1.5 },
		func(p *Profile) { p.Domains[trace.User].MeanLoopFrac = -0.2 },
		func(p *Profile) { p.Domains[trace.User].CallProb = 0.9 },
		func(p *Profile) { p.Domains[trace.User].SkipProb = 0.95 },
		func(p *Profile) { p.Domains[trace.User].MeanResidency = 0 },
		func(p *Profile) { p.Domains[trace.User].TimeShare = 0.2 }, // sums to 0.6
		func(p *Profile) { p.Data.LoadFrac = 0.8; p.Data.StoreFrac = 0.5 },
		func(p *Profile) { p.Data.StreamFrac = 2 },
		func(p *Profile) { p.Data.HeapPages = -1 },
		func(p *Profile) {
			p.Domains[trace.User].TimeShare = 0
			p.Domains[trace.Kernel].TimeShare = 0
		},
	}
	for i, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
	p := testProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := testProfile()
	a := MustNewGenerator(p, 0)
	b := MustNewGenerator(p, 0)
	for i := 0; i < 20000; i++ {
		ra := a.Next()
		rb := b.Next()
		if ra != rb {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestGeneratorReset(t *testing.T) {
	g := MustNewGenerator(testProfile(), 0)
	var first []trace.Ref
	for i := 0; i < 5000; i++ {
		first = append(first, g.Next())
	}
	g.Reset()
	for i := 0; i < 5000; i++ {
		r := g.Next()
		if r != first[i] {
			t.Fatalf("Reset stream diverged at %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p := testProfile()
	a := MustNewGenerator(p, 1)
	b := MustNewGenerator(p, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		ra := a.Next()
		rb := b.Next()
		if ra == rb {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical refs", same)
	}
}

func TestDomainShares(t *testing.T) {
	g := MustNewGenerator(testProfile(), 0)
	for g.Instructions() < 300000 {
		g.Next()
	}
	if u := g.DomainShare(trace.User); math.Abs(u-0.6) > 0.02 {
		t.Errorf("user share = %v, want 0.6", u)
	}
	if k := g.DomainShare(trace.Kernel); math.Abs(k-0.4) > 0.02 {
		t.Errorf("kernel share = %v, want 0.4", k)
	}
	if x := g.DomainShare(trace.XServer); x != 0 {
		t.Errorf("inactive domain share = %v", x)
	}
}

func TestAddressesInDomainRegions(t *testing.T) {
	g := MustNewGenerator(testProfile(), 0)
	for i := 0; i < 100000; i++ {
		r := g.Next()
		base := domainTextBase[r.Domain]
		if r.Kind == trace.IFetch {
			if r.Addr < base || r.Addr >= base+globalOffset {
				t.Fatalf("ifetch %x outside text region of %v", r.Addr, r.Domain)
			}
			if r.Addr%instrSize != 0 {
				t.Fatalf("misaligned instruction fetch %x", r.Addr)
			}
		} else {
			if r.Addr < base+globalOffset {
				t.Fatalf("data ref %x below data region of %v", r.Addr, r.Domain)
			}
		}
	}
}

func TestDataFractions(t *testing.T) {
	g := MustNewGenerator(testProfile(), 0)
	var c trace.Counts
	for g.Instructions() < 200000 {
		c.Observe(g.Next())
	}
	loads := float64(c.ByKind[trace.DRead]) / float64(c.ByKind[trace.IFetch])
	stores := float64(c.ByKind[trace.DWrite]) / float64(c.ByKind[trace.IFetch])
	if math.Abs(loads-0.2) > 0.01 {
		t.Errorf("load fraction = %v, want 0.2", loads)
	}
	if math.Abs(stores-0.1) > 0.01 {
		t.Errorf("store fraction = %v, want 0.1", stores)
	}
}

func TestInstrTraceOnlyInstructions(t *testing.T) {
	refs, err := InstrTrace(testProfile(), 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10000 {
		t.Fatalf("got %d refs", len(refs))
	}
	for _, r := range refs {
		if r.Kind != trace.IFetch {
			t.Fatalf("non-instruction ref %v in InstrTrace", r.Kind)
		}
	}
}

func TestTraceIncludesData(t *testing.T) {
	refs, err := Trace(testProfile(), 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counts
	for _, r := range refs {
		c.Observe(r)
	}
	if c.ByKind[trace.IFetch] < 10000 {
		t.Errorf("only %d instructions", c.ByKind[trace.IFetch])
	}
	if c.ByKind[trace.DRead] == 0 || c.ByKind[trace.DWrite] == 0 {
		t.Error("Trace produced no data references")
	}
}

func TestRegistryComplete(t *testing.T) {
	r := Registry()
	// 8 IBS × 2 OSes + 7 SPEC entries.
	if len(r) != 8*2+7 {
		t.Fatalf("registry has %d entries", len(r))
	}
	for name, p := range r {
		if err := p.Validate(); err != nil {
			t.Errorf("registered profile %s invalid: %v", name, err)
		}
	}
	for _, name := range []string{"gs", "gs/ultrix", "verilog", "eqntott", "specfp89"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q) failed: %v", name, err)
		}
	}
	if _, err := Lookup("nonesuch"); err == nil {
		t.Error("Lookup of unknown name succeeded")
	}
	names := Names()
	if len(names) != len(r) {
		t.Errorf("Names() returned %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names() not sorted")
		}
	}
}

func TestSuiteConstructors(t *testing.T) {
	if got := len(IBSMach()); got != 8 {
		t.Errorf("IBSMach: %d", got)
	}
	if got := len(IBSUltrix()); got != 8 {
		t.Errorf("IBSUltrix: %d", got)
	}
	if got := len(SPEC92()); got != 3 {
		t.Errorf("SPEC92: %d", got)
	}
	suites := SPECSuites()
	if len(suites) != 4 {
		t.Fatalf("SPECSuites: %d", len(suites))
	}
	wantOrder := []string{"specint89", "specfp89", "specint92", "specfp92"}
	for i, p := range suites {
		if p.Name != wantOrder[i] {
			t.Errorf("suite %d = %s, want %s", i, p.Name, wantOrder[i])
		}
	}
	for _, p := range IBSMach() {
		if p.OS != Microkernel {
			t.Errorf("%s not microkernel", p.Name)
		}
	}
	for _, p := range IBSUltrix() {
		if p.OS != Monolithic {
			t.Errorf("%s not monolithic", p.Name)
		}
	}
}

func TestTable4Components(t *testing.T) {
	u, k, b, x, err := Table4Components("mpeg_play")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u+k+b+x-1) > 1e-9 {
		t.Errorf("components sum to %v", u+k+b+x)
	}
	if u != 0.40 || k != 0.23 || b != 0.30 || x != 0.07 {
		t.Errorf("mpeg_play components = %v %v %v %v", u, k, b, x)
	}
	if _, _, _, _, err := Table4Components("bogus"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestScale(t *testing.T) {
	p := testProfile()
	scaled := p.Scale(2.0)
	if scaled.Domains[trace.User].Procs != 100 {
		t.Errorf("scaled Procs = %d", scaled.Domains[trace.User].Procs)
	}
	if !strings.Contains(scaled.Name, "x2.00") {
		t.Errorf("scaled name = %q", scaled.Name)
	}
	if scaled.Footprint() <= p.Footprint() {
		t.Error("scaling did not grow footprint")
	}
	// Scaling by a tiny factor never drops below 1 procedure.
	tiny := p.Scale(0.0001)
	if tiny.Domains[trace.User].Procs < 1 {
		t.Error("scale produced zero procedures")
	}
}

func TestFootprintAndActiveDomains(t *testing.T) {
	p := testProfile()
	want := int64(50*256 + 30*256)
	if got := p.Footprint(); got != want {
		t.Errorf("Footprint = %d, want %d", got, want)
	}
	ad := p.ActiveDomains()
	if len(ad) != 2 || ad[0] != trace.User || ad[1] != trace.Kernel {
		t.Errorf("ActiveDomains = %v", ad)
	}
}

func TestOSModelString(t *testing.T) {
	if !strings.Contains(Monolithic.String(), "Ultrix") {
		t.Error("Monolithic name")
	}
	if !strings.Contains(Microkernel.String(), "Mach") {
		t.Error("Microkernel name")
	}
	if !strings.Contains(OSModel(9).String(), "OSModel(") {
		t.Error("unknown OSModel name")
	}
}

func TestGeneratorSingleDomain(t *testing.T) {
	p := Profile{Name: "solo", Seed: 5}
	p.Domains[trace.User] = DomainProfile{
		TimeShare: 1.0, Procs: 10, MeanProcBytes: 128, Theta: 1.5,
		LoopProb: 0.3, MeanLoopIter: 3, MeanLoopFrac: 0.4,
		CallProb: 0.01, SkipProb: 0.05, MeanResidency: 100,
	}
	g := MustNewGenerator(p, 0)
	for i := 0; i < 10000; i++ {
		if r := g.Next(); r.Domain != trace.User {
			t.Fatal("single-domain generator misbehaved")
		}
	}
}

func TestMustNewGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNewGenerator(Profile{}, 0)
}

// The headline calibration property: IBS workloads miss far more than SPEC
// workloads in a small I-cache, and Mach exceeds Ultrix. (Full numeric
// calibration lives in cmd/ibscal and EXPERIMENTS.md; this guards the
// ordering at reduced trace lengths.)
func TestCalibrationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration ordering needs a few hundred thousand refs")
	}
	mpi := func(p Profile) float64 {
		refs, err := InstrTrace(p, 0, 400000)
		if err != nil {
			t.Fatal(err)
		}
		lines := make(map[uint64]int64)
		misses := int64(0)
		for _, r := range refs {
			la := r.Addr >> 5
			set := la & 255
			if lines[set] != int64(la>>8)+1 {
				misses++
				lines[set] = int64(la>>8) + 1
			}
		}
		return float64(misses) / float64(len(refs))
	}
	gsMach, _ := Lookup("gs")
	gsUltrix, _ := Lookup("gs/ultrix")
	eqntott, _ := Lookup("eqntott")
	mMach, mUltrix, mSpec := mpi(gsMach), mpi(gsUltrix), mpi(eqntott)
	if mMach <= mSpec*2 {
		t.Errorf("IBS gs (%.4f) not clearly above SPEC eqntott (%.4f)", mMach, mSpec)
	}
	if mMach <= mUltrix {
		t.Errorf("Mach gs (%.4f) not above Ultrix gs (%.4f)", mMach, mUltrix)
	}
}

func TestWalkStatsMatchKnobs(t *testing.T) {
	p := testProfile()
	g := MustNewGenerator(p, 0)
	const n = 400_000
	for g.Instructions() < n {
		g.Next()
	}
	w := g.WalkStats()
	if w.Visits == 0 || w.Calls == 0 || w.Skips == 0 || w.LoopBackEdges == 0 {
		t.Fatalf("walk counters empty: %+v", w)
	}
	// Call rate approximates CallProb (0.02 in both domains), modulo the
	// depth cap suppressing some calls.
	callRate := float64(w.Calls) / n
	if callRate < 0.010 || callRate > 0.025 {
		t.Errorf("call rate %.4f, want ~0.02", callRate)
	}
	// Skip rate approximates SkipProb (0.1) minus jump/loop interactions.
	skipRate := float64(w.Skips) / n
	if skipRate < 0.05 || skipRate > 0.12 {
		t.Errorf("skip rate %.4f, want ~0.1", skipRate)
	}
	// Domain switches: residencies of 1000/400 at 60/40 shares → mean
	// period ≈ 0.6*1000+0.4*400 = 760 per... switches ≈ n/mean residency.
	switches := float64(w.DomainSwitches)
	if switches < float64(n)/3000 || switches > float64(n)/200 {
		t.Errorf("domain switches %d implausible for residencies 1000/400", w.DomainSwitches)
	}
	// Reset clears the counters.
	g.Reset()
	if g.WalkStats() != (WalkStats{}) {
		t.Error("Reset left walk stats")
	}
}

func TestWalkStatsNoJumpsWhenDisabled(t *testing.T) {
	p := testProfile() // JumpProb defaults to 0
	g := MustNewGenerator(p, 0)
	for g.Instructions() < 100_000 {
		g.Next()
	}
	if got := g.WalkStats().FarJumps; got != 0 {
		t.Fatalf("FarJumps = %d with JumpProb 0", got)
	}
	// And with it enabled, they appear at roughly the configured rate.
	p2 := testProfile()
	p2.Domains[trace.User].JumpProb = 0.03
	p2.Domains[trace.Kernel].JumpProb = 0.03
	g2 := MustNewGenerator(p2, 0)
	for g2.Instructions() < 100_000 {
		g2.Next()
	}
	rate := float64(g2.WalkStats().FarJumps) / 100_000
	if rate < 0.015 || rate > 0.035 {
		t.Errorf("far-jump rate %.4f, want ~0.03", rate)
	}
}

var refSink trace.Ref

// BenchmarkGeneratorNext times the generator on gcc, one op per
// instruction: alone (the instruction-only stream every trace the store
// memoizes is made of) and with data references (the stream Tables 1 and 3
// feed the DECstation model), where one instruction emits about 1.3
// references.
func BenchmarkGeneratorNext(b *testing.B) {
	p, err := Lookup("gcc")
	if err != nil {
		b.Fatal(err)
	}
	instrOnly := p
	instrOnly.Data = DataProfile{}
	for _, bc := range []struct {
		name string
		prof Profile
	}{{"instr", instrOnly}, {"data", p}} {
		b.Run(bc.name, func(b *testing.B) {
			g := MustNewGenerator(bc.prof, 0)
			b.ResetTimer()
			for g.Instructions() < int64(b.N) {
				refSink = g.Next()
			}
		})
	}
}
