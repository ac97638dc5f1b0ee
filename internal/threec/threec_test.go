package threec

import (
	"testing"
	"testing/quick"

	"ibsim/internal/cache"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

func refsOf(lineAddrs ...uint64) []trace.Ref {
	refs := make([]trace.Ref, len(lineAddrs))
	for i, a := range lineAddrs {
		refs[i] = trace.Ref{Addr: a * 32, Kind: trace.IFetch}
	}
	return refs
}

func TestStackDistBasics(t *testing.T) {
	sd := newStackDist()
	if d, first := sd.Touch(10); !first || d != 0 {
		t.Fatalf("first touch: d=%d first=%v", d, first)
	}
	if d, first := sd.Touch(10); first || d != 1 {
		t.Fatalf("immediate re-touch: d=%d first=%v", d, first)
	}
	sd.Touch(20)
	sd.Touch(30)
	// 10 was touched, then 20, 30: distance of 10 is 3 (10, 20, 30 distinct).
	if d, _ := sd.Touch(10); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
	// Re-touching 20: since its last touch we saw 30, 10 → distance 3.
	if d, _ := sd.Touch(20); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
}

func TestStackDistIgnoresDuplicates(t *testing.T) {
	sd := newStackDist()
	sd.Touch(1)
	sd.Touch(2)
	sd.Touch(2)
	sd.Touch(2)
	// Distinct lines since last touch of 1: {1, 2} → 2 despite three touches of 2.
	if d, _ := sd.Touch(1); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
}

func TestClassifyExactCompulsoryOnly(t *testing.T) {
	// Sequential sweep that fits in cache: all misses compulsory.
	b, err := ClassifyExact(cache.Config{Size: 1024, LineSize: 32, Assoc: 1},
		refsOf(0, 1, 2, 3, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != 4 || b.Compulsory != 4 || b.Capacity != 0 || b.Conflict != 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Accesses != 8 {
		t.Fatalf("accesses = %d", b.Accesses)
	}
}

func TestClassifyExactCapacity(t *testing.T) {
	// Fully-associative 4-line cache; cyclic sweep over 5 lines thrashes:
	// every miss after the first pass has stack distance 5 > 4 → capacity.
	var seq []uint64
	for pass := 0; pass < 3; pass++ {
		for l := uint64(0); l < 5; l++ {
			seq = append(seq, l)
		}
	}
	b, err := ClassifyExact(cache.Config{Size: 4 * 32, LineSize: 32, Assoc: 0}, refsOf(seq...))
	if err != nil {
		t.Fatal(err)
	}
	if b.Compulsory != 5 {
		t.Fatalf("compulsory = %d, want 5", b.Compulsory)
	}
	if b.Conflict != 0 {
		t.Fatalf("fully-assoc cache has %d conflict misses", b.Conflict)
	}
	if b.Capacity != b.Total-5 {
		t.Fatalf("capacity = %d, total = %d", b.Capacity, b.Total)
	}
	if b.Total != 15 { // LRU + cyclic over-capacity sweep: everything misses
		t.Fatalf("total = %d, want 15", b.Total)
	}
}

func TestClassifyExactConflict(t *testing.T) {
	// DM cache, 4 lines: lines 0 and 4 conflict (same set), working set of 2
	// fits easily → all non-first misses are conflicts.
	b, err := ClassifyExact(cache.Config{Size: 4 * 32, LineSize: 32, Assoc: 1},
		refsOf(0, 4, 0, 4, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if b.Compulsory != 2 {
		t.Fatalf("compulsory = %d", b.Compulsory)
	}
	if b.Capacity != 0 {
		t.Fatalf("capacity = %d, want 0", b.Capacity)
	}
	if b.Conflict != 4 {
		t.Fatalf("conflict = %d, want 4", b.Conflict)
	}
}

func TestClassifyApproxMatchesIntuition(t *testing.T) {
	// Same conflict workload: the approximation should also call these
	// conflicts (8-way removes them entirely).
	b := ClassifyApprox(4*32, 32, refsOf(0, 4, 0, 4, 0, 4))
	if b.Total != 6 {
		t.Fatalf("total = %d, want 6 (DM thrash)", b.Total)
	}
	if b.Conflict != 4 {
		t.Fatalf("conflict = %d, want 4", b.Conflict)
	}
	if b.Compulsory != 2 {
		t.Fatalf("compulsory = %d, want 2", b.Compulsory)
	}
}

func TestClassifyApproxTinyCache(t *testing.T) {
	// Cache with fewer than 8 lines: reference associativity degrades to
	// fully associative without panicking.
	b := ClassifyApprox(4*32, 32, refsOf(0, 1, 2, 3, 0, 1, 2, 3))
	if b.Total != 8-4 && b.Total != 8 { // DM: 0..3 map to distinct sets → 4 misses
		t.Logf("total = %d", b.Total)
	}
	if b.Compulsory != 4 {
		t.Fatalf("compulsory = %d", b.Compulsory)
	}
}

func TestBreakdownRatios(t *testing.T) {
	b := Breakdown{Accesses: 200, Compulsory: 2, Capacity: 6, Conflict: 4, Total: 12}
	if b.MPI() != 0.06 {
		t.Errorf("MPI = %v", b.MPI())
	}
	if b.CompulsoryMPI() != 0.01 || b.CapacityMPI() != 0.03 || b.ConflictMPI() != 0.02 {
		t.Errorf("component MPIs wrong: %v %v %v", b.CompulsoryMPI(), b.CapacityMPI(), b.ConflictMPI())
	}
	var empty Breakdown
	if empty.MPI() != 0 || empty.CompulsoryMPI() != 0 {
		t.Error("empty breakdown ratios non-zero")
	}
}

// Property: components always sum to the total, for both classifiers, on
// random reference strings.
func TestComponentsSumProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := xrand.New(seed)
		count := int(n%2000) + 10
		lines := make([]uint64, count)
		for i := range lines {
			lines[i] = uint64(rng.Intn(300))
		}
		exact, err := ClassifyExact(cache.Config{Size: 2048, LineSize: 32, Assoc: 1}, refsOf(lines...))
		if err != nil || exact.Compulsory+exact.Capacity+exact.Conflict != exact.Total {
			return false
		}
		approx := ClassifyApprox(2048, 32, refsOf(lines...))
		if approx.Compulsory+approx.Capacity+approx.Conflict != approx.Total {
			return false
		}
		// Both classifiers agree on the total (it is the same DM cache).
		return exact.Total == approx.Total && exact.Compulsory == approx.Compulsory
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: stack distance equals the naive O(n²) recomputation.
func TestStackDistMatchesNaive(t *testing.T) {
	rng := xrand.New(77)
	var hist []uint64
	sd := newStackDist()
	for i := 0; i < 3000; i++ {
		line := uint64(rng.Intn(50))
		dist, first := sd.Touch(line)
		// Naive: scan history backward collecting distinct lines.
		wantFirst := true
		distinct := map[uint64]bool{}
		var wantDist int64
		for j := len(hist) - 1; j >= 0; j-- {
			if !distinct[hist[j]] {
				distinct[hist[j]] = true
				wantDist++
			}
			if hist[j] == line {
				wantFirst = false
				break
			}
		}
		if wantFirst {
			wantDist = 0
		}
		if first != wantFirst || (!first && dist != wantDist) {
			t.Fatalf("step %d line %d: got (%d,%v), want (%d,%v)", i, line, dist, first, wantDist, wantFirst)
		}
		hist = append(hist, line)
	}
}

func TestClassifyExactRejectsBadConfig(t *testing.T) {
	if _, err := ClassifyExact(cache.Config{Size: 7, LineSize: 32, Assoc: 1}, refsOf(0)); err == nil {
		t.Fatal("bad config accepted")
	}
}
