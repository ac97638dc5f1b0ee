package synth

import (
	"sync"

	"ibsim/internal/xrand"
)

// zipf samples ranks 0..n-1 with true Zipfian probabilities
// p(r) ∝ 1/(r+1)^s, via a precomputed inverse-CDF table. The popularity
// distribution of procedure invocations is the single most important
// determinant of a workload's miss-ratio-versus-cache-size curve: a Zipf
// exponent near 1 gives the gradual decline of a bloated, flat profile
// (IBS), while exponents near 2 give the loop-dominated concentration of the
// SPEC benchmarks.
type zipf struct {
	cum []float64 // cum[r] = P(rank <= r); cum[n-1] == 1
	// guide[k] is the first rank r whose bucket(cum[r]) >= k, where
	// bucket(x) = int(x*n) and n = len(cum); guide[n+1] = n-1. A draw f in
	// bucket k has its rank in [guide[k], guide[k+1]]: every rank below
	// guide[k] sits in a lower bucket, so its cum is below f, and
	// guide[k+1] sits in a higher bucket (or is the last rank), so its cum
	// is at least f. bucket is monotone in x under float rounding, so the
	// bounds hold exactly, not only in real arithmetic.
	guide []int32
	scale float64 // float64(n)
}

// zipfCache memoizes inverse-CDF tables by (n, s). The table is a pure
// function of its parameters and immutable after construction (draw only
// reads it), so one copy can back every generator. Building a table costs
// ~25 Newton iterations per rank — without the cache it dominates generator
// construction, which the store performs per seek-source acquisition.
var zipfCache sync.Map // zipfKey -> *zipf

type zipfKey struct {
	n int
	s float64
}

// newZipf returns the (shared) sampler over n ranks with exponent s > 0.
func newZipf(n int, s float64) *zipf {
	if n < 1 {
		n = 1
	}
	key := zipfKey{n: n, s: s}
	if z, ok := zipfCache.Load(key); ok {
		return z.(*zipf)
	}
	z := buildZipf(n, s)
	zipfCache.Store(key, z)
	return z
}

// buildZipf constructs the inverse-CDF table.
func buildZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += invPow(float64(r+1), s)
		cum[r] = total
	}
	inv := 1 / total
	for r := range cum {
		cum[r] *= inv
	}
	cum[n-1] = 1 // guard against rounding
	return zipfFromCDF(cum)
}

// zipfFromCDF builds the sampler's guide table over cum, which must end
// at 1.
func zipfFromCDF(cum []float64) *zipf {
	n := len(cum)
	z := &zipf{cum: cum, guide: make([]int32, n+2), scale: float64(n)}
	r := 0
	for k := 0; k <= n; k++ {
		// Terminates: bucket(cum[n-1]) = bucket(1) = n >= k.
		for z.bucket(cum[r]) < k {
			r++
		}
		z.guide[k] = int32(r)
	}
	z.guide[n+1] = int32(n - 1)
	return z
}

// bucket maps a cumulative probability to its guide-table slot.
func (z *zipf) bucket(x float64) int { return int(x * z.scale) }

// invPow computes x^(-s) for x >= 1, s > 0 using exp/ln via the math
// library-free square-and-multiply in xrand would be overkill here; the
// straightforward loop below handles integer and fractional exponents with
// adequate precision for sampling tables.
func invPow(x, s float64) float64 {
	// x^-s = (1/x)^s
	u := 1 / x
	// Integer part.
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
	// Fractional part via binary-fraction roots.
	if frac > 0 {
		root := u
		for i := 0; i < 24 && frac > 0; i++ {
			root = sqrt(root)
			frac *= 2
			if frac >= 1 {
				result *= root
				frac -= 1
			}
		}
	}
	return result
}

func sqrt(u float64) float64 {
	if u <= 0 {
		return 0
	}
	x := u
	if x > 1 {
		x = 1
	}
	for i := 0; i < 24; i++ {
		x = 0.5 * (x + u/x)
	}
	return x
}

// draw samples a rank.
func (z *zipf) draw(rng *xrand.Source) int { return z.rank(rng.Float64()) }

// rank returns the first rank r with cum[r] >= f, for f in [0, 1): a binary
// search confined to the guide table's bounds for f's bucket, which hold at
// most a few ranks for all but the head of the distribution.
func (z *zipf) rank(f float64) int {
	k := z.bucket(f)
	lo, hi := int(z.guide[k]), int(z.guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cum[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// n returns the number of ranks.
func (z *zipf) n() int { return len(z.cum) }

// tailMass returns P(rank >= k) — used by tests to validate the sampler
// against closed-form expectations.
func (z *zipf) tailMass(k int) float64 {
	if k <= 0 {
		return 1
	}
	if k >= len(z.cum) {
		return 0
	}
	return 1 - z.cum[k-1]
}
