package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sampleOf(xs ...float64) *Sample {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatalf("empty sample not zero: %+v", s)
	}
}

func TestSampleSingle(t *testing.T) {
	s := sampleOf(4.2)
	if s.Mean() != 4.2 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatalf("single-value sample wrong: %+v", *s)
	}
}

func TestSampleKnownValues(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Sample variance with n-1: sum sq dev = 32, 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if !almostEq(s.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stddev = %v, want %v", s.StdDev(), math.Sqrt(32.0/7.0))
	}
}

func TestSampleStability(t *testing.T) {
	// Large offset, tiny spread: Welford must not cancel catastrophically.
	var s Sample
	base := 1e9
	for i := 0; i < 1000; i++ {
		s.Add(base + float64(i%2)) // alternates base, base+1
	}
	if !almostEq(s.Mean(), base+0.5, 1e-3) {
		t.Errorf("mean = %v", s.Mean())
	}
	if !almostEq(s.Variance(), 0.25025, 1e-3) { // ~p(1-p)*n/(n-1)
		t.Errorf("variance = %v", s.Variance())
	}
}

// Property: Welford's mean and variance equal the naive two-pass ones.
func TestSampleProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var s Sample
		var sum float64
		for i, v := range raw {
			xs[i] = float64(v) / 7.0
			s.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := 0.0
		if len(xs) > 1 {
			variance = ss / float64(len(xs)-1)
		}
		return s.Variance() >= 0 && almostEq(s.Mean(), mean, 1e-6) &&
			almostEq(s.Variance(), variance, 1e-6*(1+variance))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
