package vm

import (
	"strings"
	"testing"
	"testing/quick"

	"ibsim/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PageSize: 3000},
		{PageSize: -4096},
		{PageSize: 4096, Frames: -1},
		{PageSize: 4096, Colors: 3},
		{PageSize: 4096, Colors: -2},
		{PageSize: 4096, Policy: PageColoring}, // needs Colors
		{PageSize: 4096, Policy: BinHopping},   // needs Colors
		{PageSize: 4096, Policy: BinHopping, Colors: 8, Frames: 4},
	}
	for _, cfg := range bad {
		if _, err := NewMapper(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewMapper(Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		RandomAlloc: "random", Sequential: "sequential",
		PageColoring: "page-coloring", BinHopping: "bin-hopping",
	} {
		if got := p.String(); got != want {
			t.Errorf("%v != %q", got, want)
		}
	}
	if !strings.HasPrefix(Policy(99).String(), "Policy(") {
		t.Error("unknown policy name")
	}
}

func TestTranslateStable(t *testing.T) {
	m := MustNewMapper(Config{Policy: RandomAlloc, Seed: 1})
	a1 := m.Translate(0x1234, trace.User)
	a2 := m.Translate(0x1234, trace.User)
	if a1 != a2 {
		t.Fatal("same page translated differently across calls")
	}
	// Offset preserved.
	if a1&0xFFF != 0x234 {
		t.Fatalf("offset not preserved: %x", a1)
	}
	// Same page, different offset: same frame.
	a3 := m.Translate(0x1FFF, trace.User)
	if a3>>12 != a1>>12 {
		t.Fatal("same page, different frame")
	}
}

func TestDomainsAreSeparateSpaces(t *testing.T) {
	m := MustNewMapper(Config{Policy: Sequential})
	u := m.Translate(0x1000, trace.User)
	k := m.Translate(0x1000, trace.Kernel)
	if u == k {
		t.Fatal("same VPN in different domains shared a frame")
	}
	if m.Allocated() != 2 {
		t.Fatalf("Allocated = %d", m.Allocated())
	}
}

func TestSequentialPolicy(t *testing.T) {
	m := MustNewMapper(Config{Policy: Sequential})
	for i := uint64(0); i < 10; i++ {
		got := m.Translate(i*0x10000, trace.User) // distinct pages
		if got>>12 != i {
			t.Fatalf("page %d got frame %d", i, got>>12)
		}
	}
}

func TestPageColoringMatchesVirtualColor(t *testing.T) {
	const colors = 16
	m := MustNewMapper(Config{Policy: PageColoring, Colors: colors})
	for i := uint64(0); i < 200; i++ {
		vaddr := i * 4096 * 3 // arbitrary stride
		p := m.Translate(vaddr, trace.User)
		vColor := (vaddr >> 12) % colors
		pColor := (p >> 12) % colors
		if vColor != pColor {
			t.Fatalf("page %d: vcolor %d != pcolor %d", i, vColor, pColor)
		}
	}
}

func TestBinHoppingCyclesColors(t *testing.T) {
	const colors = 8
	m := MustNewMapper(Config{Policy: BinHopping, Colors: colors})
	counts := make([]int, colors)
	for i := uint64(0); i < 64; i++ {
		p := m.Translate(i*0x100000, trace.User) // all distinct pages
		counts[(p>>12)%colors]++
	}
	for c, n := range counts {
		if n != 8 {
			t.Fatalf("color %d allocated %d times, want 8 (round-robin)", c, n)
		}
	}
}

func TestRandomPolicyVariesAcrossTrials(t *testing.T) {
	m := MustNewMapper(Config{Policy: RandomAlloc, Seed: 5})
	first := m.Translate(0x1000, trace.User)
	m.ResetTrial(1)
	second := m.Translate(0x1000, trace.User)
	m.ResetTrial(2)
	third := m.Translate(0x1000, trace.User)
	if first == second && second == third {
		t.Fatal("three trials produced identical mappings (suspicious)")
	}
	// Trials individually reproducible.
	m.ResetTrial(1)
	if got := m.Translate(0x1000, trace.User); got != second {
		t.Fatal("trial 1 not reproducible")
	}
}

func TestResetReproducesOriginalStream(t *testing.T) {
	m := MustNewMapper(Config{Policy: RandomAlloc, Seed: 9})
	var orig []uint64
	for i := uint64(0); i < 20; i++ {
		orig = append(orig, m.Translate(i*0x10000, trace.User))
	}
	m.Reset()
	for i := uint64(0); i < 20; i++ {
		if got := m.Translate(i*0x10000, trace.User); got != orig[i] {
			t.Fatalf("Reset changed mapping %d", i)
		}
	}
}

func TestBoundedFrames(t *testing.T) {
	m := MustNewMapper(Config{Policy: Sequential, Frames: 4})
	seen := map[uint64]bool{}
	for i := uint64(0); i < 16; i++ {
		p := m.Translate(i*0x10000, trace.User)
		pfn := p >> 12
		if pfn >= 4 {
			t.Fatalf("frame %d out of bounds", pfn)
		}
		seen[pfn] = true
	}
	if len(seen) != 4 {
		t.Fatalf("bounded allocator used %d frames, want 4", len(seen))
	}
}

func TestMustNewMapperPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNewMapper(Config{PageSize: 3})
}

// Property: translation preserves page offsets and is a function (same input
// → same output) for all policies.
func TestTranslateProperties(t *testing.T) {
	f := func(addrs []uint32, polSel uint8) bool {
		pol := []Policy{RandomAlloc, Sequential, PageColoring, BinHopping}[polSel%4]
		m := MustNewMapper(Config{Policy: pol, Colors: 16, Seed: 42})
		for _, a := range addrs {
			addr := uint64(a)
			p1 := m.Translate(addr, trace.User)
			p2 := m.Translate(addr, trace.User)
			if p1 != p2 {
				return false
			}
			if p1&0xFFF != addr&0xFFF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
