package fetch

import (
	"strings"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

var l2cfg64 = cache.Config{Size: 64 * 1024, LineSize: 64, Assoc: 8}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(cache.Config{Size: 7}, l2cfg64, l2link, memsys.Economy().Memory); err == nil {
		t.Error("bad L1 accepted")
	}
	if _, err := NewHierarchy(l1cfg, cache.Config{Size: 7}, l2link, memsys.Economy().Memory); err == nil {
		t.Error("bad L2 accepted")
	}
	if _, err := NewHierarchy(l1cfg, l2cfg64, memsys.Transfer{}, memsys.Economy().Memory); err == nil {
		t.Error("bad L1 link accepted")
	}
	if _, err := NewHierarchy(l1cfg, l2cfg64, l2link, memsys.Transfer{}); err == nil {
		t.Error("bad memory link accepted")
	}
	// An L1 refill probes and charges one L2 line, so that line must cover it.
	short := cache.Config{Size: 64 * 1024, LineSize: 16, Assoc: 8}
	_, err := NewHierarchy(l1cfg, short, l2link, memsys.Economy().Memory)
	if err == nil || !strings.Contains(err.Error(), "(16)") || !strings.Contains(err.Error(), "(32)") {
		t.Errorf("L2 line shorter than the L1's: err = %v, want one naming 16 and 32", err)
	}
}

func TestHierarchyStallAccounting(t *testing.T) {
	h, err := NewHierarchy(l1cfg, l2cfg64, l2link, memsys.Economy().Memory)
	if err != nil {
		t.Fatal(err)
	}
	// Cold fetch: misses both levels. L1 fill = 6+2-1 = 7; L2 fill of a
	// 64-byte line from economy memory = 30+16-1 = 45.
	h.Fetch(0)
	res := h.Result()
	if res.StallCycles != 7+45 {
		t.Fatalf("cold stall = %d, want 52", res.StallCycles)
	}
	l1s, l2s := h.Split()
	if l1s != 7 || l2s != 45 {
		t.Fatalf("split = %v/%v", l1s, l2s)
	}
	// Second fetch of the same line: L1 hit, free.
	h.Fetch(4)
	if got := h.Result(); got.StallCycles != 52 {
		t.Fatalf("hit charged stall: %d", got.StallCycles)
	}
	// A line in the same 64-B L2 line but a different 32-B L1 line: L1
	// miss, L2 hit → only the 7-cycle L1 fill.
	h.Fetch(32)
	if got := h.Result(); got.StallCycles != 52+7 {
		t.Fatalf("L2-hit stall = %d, want 59", got.StallCycles)
	}
	if h.L2Misses() != 1 {
		t.Fatalf("L2 misses = %d", h.L2Misses())
	}
}

func TestHierarchyCachesExposed(t *testing.T) {
	h, _ := NewHierarchy(l1cfg, l2cfg64, l2link, memsys.Economy().Memory)
	h.Fetch(0)
	if !h.L1().Contains(0) || !h.L2().Contains(0) {
		t.Fatal("fetched line missing from a level")
	}
}

// The paper's independent-levels methodology should closely agree with the
// combined hierarchy on realistic streams.
func TestHierarchyMatchesIndependentSum(t *testing.T) {
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	mem := memsys.Economy().Memory

	combined, err := NewHierarchy(l1cfg, l2cfg64, l2link, mem)
	if err != nil {
		t.Fatal(err)
	}
	Run(combined, refs)
	combTotal := combined.Result().CPIinstr()

	l1only, _ := NewBlocking(l1cfg, l2link, 0)
	l2only, _ := NewBlocking(l2cfg64, mem, 0)
	indep := Run(l1only, refs).CPIinstr() + Run(l2only, refs).CPIinstr()

	diff := combTotal - indep
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.10*indep {
		t.Fatalf("combined (%.3f) vs independent sum (%.3f): %.1f%% apart",
			combTotal, indep, 100*diff/indep)
	}
}

func TestHierarchyRunIgnoresData(t *testing.T) {
	h, _ := NewHierarchy(l1cfg, l2cfg64, l2link, memsys.Economy().Memory)
	res := Run(h, []trace.Ref{
		{Addr: 0, Kind: trace.IFetch},
		{Addr: 8192, Kind: trace.DWrite},
	})
	if res.Instructions != 1 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}
