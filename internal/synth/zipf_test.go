package synth

import (
	"math"
	"testing"

	"ibsim/internal/xrand"
)

func TestInvPowMatchesMath(t *testing.T) {
	for _, tc := range []struct{ x, s float64 }{
		{1, 1}, {2, 1}, {10, 1}, {3, 2}, {7, 1.5}, {100, 1.38}, {500, 2.4}, {1, 0.5},
	} {
		got := invPow(tc.x, tc.s)
		want := math.Pow(tc.x, -tc.s)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("invPow(%v, %v) = %v, want %v", tc.x, tc.s, got, want)
		}
	}
}

// invPow24 is invPow as it was before sqrt stopped at a fixed point: every
// square root runs all 24 Newton steps.
func invPow24(x, s float64) float64 {
	sqrt24 := func(u float64) float64 {
		if u <= 0 {
			return 0
		}
		x := min(u, 1)
		for i := 0; i < 24; i++ {
			x = 0.5 * (x + u/x)
		}
		return x
	}
	u := 1 / x
	result := 1.0
	ip := int(s)
	frac := s - float64(ip)
	base := u
	for ip > 0 {
		if ip&1 == 1 {
			result *= base
		}
		base *= base
		ip >>= 1
	}
	if frac > 0 {
		root := u
		for i := 0; i < 24 && frac > 0; i++ {
			root = sqrt24(root)
			frac *= 2
			if frac >= 1 {
				result *= root
				frac -= 1
			}
		}
	}
	return result
}

// Stopping sqrt's Newton steps at a fixed point must leave every Zipf table
// the shipped profiles build bit for bit as it was: the generator streams
// are pinned on them. Building each profile's generator fills the table
// cache with exactly the (n, s) pairs it uses.
func TestInvPowMatches24Steps(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewGenerator(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	tables, ranks := 0, 0
	zipfCache.Range(func(k, _ any) bool {
		key := k.(zipfKey)
		tables++
		ranks += key.n
		for r := 1; r <= key.n; r++ {
			if got, want := invPow(float64(r), key.s), invPow24(float64(r), key.s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("invPow(%d, %v) = %v, 24 steps give %v", r, key.s, got, want)
			}
		}
		return true
	})
	if tables == 0 {
		t.Fatal("no Zipf tables built")
	}
	t.Logf("%d tables, %d ranks", tables, ranks)
}

func TestZipfCDFMonotone(t *testing.T) {
	z := newZipf(100, 1.3)
	prev := 0.0
	for _, c := range z.cum {
		if c < prev {
			t.Fatal("CDF not monotone")
		}
		prev = c
	}
	if z.cum[len(z.cum)-1] != 1 {
		t.Fatalf("CDF does not end at 1: %v", z.cum[len(z.cum)-1])
	}
}

func TestZipfHeadMass(t *testing.T) {
	// s=1.0 over 1000 ranks: P(rank 0) = 1/H(1000) ≈ 1/7.485 ≈ 0.1336.
	z := newZipf(1000, 1.0)
	want := 0.1336
	if got := z.cum[0]; math.Abs(got-want) > 0.001 {
		t.Errorf("P(0) = %v, want ~%v", got, want)
	}
}

func TestZipfSampling(t *testing.T) {
	z := newZipf(50, 1.5)
	rng := xrand.New(7)
	counts := make([]int, 50)
	const draws = 200000
	for i := 0; i < draws; i++ {
		r := z.draw(rng)
		if r < 0 || r >= 50 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Empirical frequencies should match the CDF increments within 5%.
	for r := 0; r < 10; r++ {
		want := z.cum[r]
		if r > 0 {
			want -= z.cum[r-1]
		}
		got := float64(counts[r]) / draws
		if math.Abs(got-want) > 0.05*want+0.001 {
			t.Errorf("rank %d: freq %v, want %v", r, got, want)
		}
	}
	// Monotone non-increasing head (allowing small noise).
	if counts[0] < counts[1] || counts[1] < counts[3] {
		t.Errorf("head not decreasing: %v", counts[:5])
	}
}

func TestZipfTailMass(t *testing.T) {
	z := newZipf(100, 2.0)
	if z.tailMass(0) != 1 {
		t.Error("tailMass(0) != 1")
	}
	if z.tailMass(100) != 0 || z.tailMass(200) != 0 {
		t.Error("tailMass beyond n != 0")
	}
	if tm := z.tailMass(1); math.Abs(tm-(1-z.cum[0])) > 1e-12 {
		t.Errorf("tailMass(1) = %v", tm)
	}
	// Larger exponent → thinner tail.
	flat := newZipf(100, 1.0)
	if z.tailMass(10) >= flat.tailMass(10) {
		t.Error("s=2 tail not thinner than s=1 tail")
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := newZipf(0, 1.0)
	if z.n() != 1 {
		t.Fatalf("n = %d", z.n())
	}
	rng := xrand.New(1)
	if z.draw(rng) != 0 {
		t.Fatal("single-rank draw != 0")
	}
}

// searchRank is the plain binary search over the whole CDF that the guide
// table narrows: the first rank r with cum[r] >= f.
func searchRank(cum []float64, f float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesSearch requires the guide-table rank to equal the
// full binary search's for random draws and for f exactly at, one ulp below
// and one ulp above every bucket boundary k/n and every CDF value. The
// hand-built CDF puts a rank one ulp below 5/6, where 6*f rounds up to 5:
// a table built from the exact boundaries k/n would start that draw's
// search past its rank.
func TestZipfGuideMatchesSearch(t *testing.T) {
	var zs []*zipf
	for _, sh := range []struct {
		n int
		s float64
	}{
		{1, 1}, {2, 1.2}, {3, 2.6}, {7, 0.5}, {50, 1.5}, {64, 1.5}, {100, 1.0},
		{780, 1.3}, {1000, 2.4}, {1024, 1.8}, {3000, 1.05}, {16384, 1.8},
	} {
		zs = append(zs, newZipf(sh.n, sh.s))
	}
	zs = append(zs, zipfFromCDF([]float64{0.1, 0.3, 0.5, 0.7, math.Nextafter(5.0/6, 0), 1}))
	rng := xrand.New(11)
	for _, z := range zs {
		n := len(z.cum)
		check := func(f float64) {
			if f < 0 || f >= 1 {
				return
			}
			if got, want := z.rank(f), searchRank(z.cum, f); got != want {
				t.Fatalf("n=%d f=%v: rank %d, binary search %d", n, f, got, want)
			}
		}
		for k := 0; k <= n; k++ {
			b := float64(k) / float64(n)
			check(b)
			check(math.Nextafter(b, 0))
			check(math.Nextafter(b, 1))
		}
		for _, c := range z.cum {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 1))
		}
		check(0)
		check(math.Nextafter(1, 0))
		for i := 0; i < 20000; i++ {
			check(rng.Float64())
		}
	}
}
