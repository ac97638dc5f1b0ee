// Package stats provides the running sample statistics the simulator needs:
// the mean and the standard deviation of experiment trials.
//
// The paper reports Figure 5 as "one standard deviation of CPIinstr" over 5
// experimental trials per configuration; Sample reproduces exactly that
// computation (sample standard deviation, n-1 denominator).
package stats

import "math"

// Sample accumulates observations using Welford's online algorithm, which is
// numerically stable for long runs of near-equal values (CPI values across
// trials differ in the third decimal place, where naive sum-of-squares
// cancellation is visible).
type Sample struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (n−1 denominator), or 0 when
// fewer than two observations have been recorded.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }
