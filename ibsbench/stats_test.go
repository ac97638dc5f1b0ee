package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(10), 0.5, 5},
		{seq(10), 0.9, 9},
		{seq(10), 1, 10},
		{seq(100), 0.9, 90},
		{seq(101), 0.9, 91},
		{[]float64{7}, 0.5, 7},
	} {
		if got, _ := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if v, ok := percentile(nil, 0.5); ok || !math.IsNaN(v) {
		t.Errorf("percentile(empty) = %v, %v; want NaN, false", v, ok)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true},
		{99, 0.9, false},
		{15, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if _, ok := percentile(seq(c.n), c.p); ok != c.ok {
			t.Errorf("percentile(n=%d, %v) ok = %v, want %v", c.n, c.p, ok, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(empty) is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if s, _ := spread(seq(10)); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", s)
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  102086 0 4679 165383 193 0 2049 9293 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	got, ok := parseSteal(strings.NewReader(stat))
	if !ok || got != 92.93 {
		t.Errorf("parseSteal = %v, %v; want 92.93, true", got, ok)
	}
	if _, ok := parseSteal(strings.NewReader("intr 1 2 3\n")); ok {
		t.Error("parseSteal without a cpu line reported ok")
	}
}

func TestWorse(t *testing.T) {
	if got := worse(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worse lower = %v, want 0.1", got)
	}
	if got := worse(1, 0.9, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worse higher = %v, want 0.1", got)
	}
}
