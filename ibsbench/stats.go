package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// timing is reported at the highest percentile that still has at least ten
// samples beyond it, so p90 needs at least 100 samples.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least a p share of the samples at or below it.
// ok reports whether at least minBeyond samples lie above that rank. An
// empty input yields (NaN, false).
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n-k >= minBeyond
}

// median returns the median of xs (the mean of the two middle samples for
// an even count), NaN for an empty input.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so spreads computed here match those computed by Python tooling. It needs
// at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// spread returns the interquartile distance of xs as a share of its
// median: the run-to-run noise measure the benchmark's bounds are set
// against.
func spread(xs []float64) (float64, bool) {
	q1, _, q3, ok := quartiles(xs)
	if !ok {
		return 0, false
	}
	m := median(xs)
	if m == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(m), true
}
