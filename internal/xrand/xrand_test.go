package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 generator looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %.4f", p)
	}
}

// TestCoinMatchesBool pins Flip(NewCoin(p)) to Bool(p): the same outcome on
// every draw, the same draws consumed (the two sources' states stay equal),
// and, at the threshold itself, the same verdict for the draws just below,
// at and above it, which a random stream would almost never hit.
func TestCoinMatchesBool(t *testing.T) {
	ps := []float64{
		-0.5, math.Inf(-1), 0, math.SmallestNonzeroFloat64, 0x1p-60, 0.5,
		1 - 0x1p-53, 1, 1.5, math.Inf(1), math.NaN(),
		0.22, 0.3 / 2.1, 1.0 / 3,
	}
	pick := New(99)
	for i := 0; i < 200; i++ {
		ps = append(ps, pick.Float64(), math.Nextafter(pick.Float64(), 0), float64(pick.Uint64()>>11)/(1<<53))
	}
	for _, p := range ps {
		c := NewCoin(p)
		a, b := New(42), New(42)
		for i := 0; i < 2000; i++ {
			if want, got := a.Bool(p), b.Flip(c); want != got {
				t.Fatalf("p=%v draw %d: Bool %v, Flip %v", p, i, want, got)
			}
			if a.State() != b.State() {
				t.Fatalf("p=%v draw %d: Bool and Flip consumed different draws", p, i)
			}
		}
		if !c.draw {
			continue
		}
		for _, k := range []uint64{c.t - 1, c.t, c.t + 1, 0, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			if want, got := float64(k)/(1<<53) < p, k < c.t; want != got {
				t.Fatalf("p=%v k=%d: Float64() < p is %v, threshold says %v", p, k, want, got)
			}
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	for _, m := range []float64{2, 5, 16, 50} {
		sum := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			sum += s.Geometric(m)
		}
		got := float64(sum) / draws
		if math.Abs(got-m) > m*0.1 {
			t.Errorf("Geometric(%v) mean %.2f, want within 10%%", m, got)
		}
	}
}

func TestGeometricMinimum(t *testing.T) {
	s := New(17)
	if v := s.Geometric(0.5); v != 1 {
		t.Fatalf("Geometric(0.5) = %d, want 1", v)
	}
	if v := s.Geometric(1); v != 1 {
		t.Fatalf("Geometric(1) = %d, want 1", v)
	}
	for i := 0; i < 1000; i++ {
		if v := s.Geometric(4); v < 1 {
			t.Fatalf("Geometric(4) = %d < 1", v)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(19)
	const n, draws = 64, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := s.Zipf(n, 3)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// With theta=3 the low quarter should dominate the top quarter.
	lo, hi := 0, 0
	for i := 0; i < n/4; i++ {
		lo += counts[i]
		hi += counts[n-1-i]
	}
	if lo <= hi*3 {
		t.Fatalf("Zipf not skewed: low quarter %d, high quarter %d", lo, hi)
	}
}

func TestZipfDegenerate(t *testing.T) {
	s := New(23)
	if v := s.Zipf(1, 2); v != 0 {
		t.Fatalf("Zipf(1) = %d, want 0", v)
	}
	if v := s.Zipf(0, 2); v != 0 {
		t.Fatalf("Zipf(0) = %d, want 0", v)
	}
}

func TestPerm(t *testing.T) {
	s := New(29)
	p := make([]int, 50)
	s.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestForkIndependence(t *testing.T) {
	base := New(31)
	a := base.Fork(1)
	b := base.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams correlated: %d/100 equal", same)
	}
}

func TestForkDeterminism(t *testing.T) {
	a := New(37).Fork(9)
	b := New(37).Fork(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal forks diverged")
		}
	}
}

func TestSqrtFloat(t *testing.T) {
	for _, u := range []float64{1e-9, 0.001, 0.25, 0.5, 0.81, 1.0} {
		got := sqrtFloat(u)
		want := math.Sqrt(u)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("sqrtFloat(%v) = %v, want %v", u, got, want)
		}
	}
	if sqrtFloat(0) != 0 {
		t.Error("sqrtFloat(0) != 0")
	}
}

func TestPowFloat(t *testing.T) {
	for _, tc := range []struct{ u, theta float64 }{
		{0.5, 1}, {0.5, 2}, {0.5, 3}, {0.25, 0.5}, {0.9, 2.5}, {0.1, 1.75},
	} {
		got := powFloat(tc.u, tc.theta)
		want := math.Pow(tc.u, tc.theta)
		if math.Abs(got-want) > 1e-4*math.Max(want, 1e-9) {
			t.Errorf("powFloat(%v, %v) = %v, want %v", tc.u, tc.theta, got, want)
		}
	}
	if powFloat(1, 5) != 1 {
		t.Error("powFloat(1, θ) != 1")
	}
	if powFloat(0, 5) != 0 {
		t.Error("powFloat(0, θ) != 0")
	}
}

// Property: Uint64n(n) < n for arbitrary n, and the generator is total (no
// infinite rejection loops) for extreme moduli.
func TestUint64nProperty(t *testing.T) {
	s := New(41)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= s.Intn(1000)
	}
	_ = sink
}
