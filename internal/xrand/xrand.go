// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every trace, workload, and experiment trial in ibsim is seeded, and results
// must be bit-for-bit reproducible across runs, platforms, and Go releases.
// math/rand's generator is stable in practice but its convenience API mixes
// global state into results; this package keeps all state explicit and the
// algorithm (splitmix64 seeding a xoshiro256** core) pinned by our own tests.
package xrand

import "math/bits"

// Source is a deterministic pseudo-random number generator. The zero value is
// not useful; construct with New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next output of the splitmix64
// generator. It is used only to expand a 64-bit seed into the 256-bit
// xoshiro state, as recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield statistically
// independent streams; equal seeds yield identical streams.
func New(seed uint64) *Source {
	var s Source
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// The all-zero state is invalid for xoshiro; splitmix64 cannot produce
	// four consecutive zeros, but guard anyway for robustness.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
// The step is written over local copies of the state words because that
// form fits the compiler's inlining budget, so Float64 and the samplers
// built on it run without a call per draw.
func (s *Source) Uint64() uint64 {
	s0, s1 := s.s[0], s.s[1]
	s2, s3 := s.s[2]^s0, s.s[3]^s1
	s.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Coin is Bool(p) for one fixed p, reduced to an integer compare: Flip(c)
// returns what Bool(p) would and consumes a draw exactly when Bool(p)
// does, so a hot loop that flips the same coin every step can precompute
// it and leave every stream it feeds bit-identical.
//
// The reduction is exact. Float64 returns k/2^53 for k = Uint64()>>11, an
// integer below 2^53; the conversion and the division by a power of two
// are exact, so Float64() < p holds exactly when k < p·2^53, which for an
// integer k is k < ceil(p·2^53). For 0 < p < 1 the product is exact too (a
// power-of-two scaling that neither overflows nor loses a subnormal's
// bits), and its ceiling lies in [1, 2^53-1].
type Coin struct {
	// t is the threshold: with draw set, Flip returns k < t; without, it
	// returns t != 0 and draws nothing.
	t    uint64
	draw bool
}

// NewCoin returns the Coin for Bool(p).
func NewCoin(p float64) Coin {
	switch {
	case p <= 0:
		return Coin{}
	case p >= 1:
		return Coin{t: 1}
	case p != p:
		// NaN: Bool draws, and no draw compares below NaN.
		return Coin{draw: true}
	}
	x := p * (1 << 53)
	t := uint64(x) // floor: x is positive
	if float64(t) < x {
		t++
	}
	return Coin{t: t, draw: true}
}

// Flip returns Bool(p) for the p c was made from, drawing as Bool(p) does.
func (s *Source) Flip(c Coin) bool {
	if c.draw {
		return s.Uint64()>>11 < c.t
	}
	return c.t != 0
}

// Geometric returns a sample from the geometric distribution with mean m
// (number of Bernoulli trials until first success, minimum 1). Values of
// m <= 1 always return 1.
func (s *Source) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	// P(success) = 1/m, inverse-CDF sampling. The count is capped to keep a
	// single pathological draw from dominating a synthetic trace.
	p := 1 / m
	f := s.Float64()
	// n = ceil(log(1-f) / log(1-p))
	n := 1
	q := 1 - p
	acc := q
	for f > 1-acc && n < 1<<20 {
		n++
		acc *= q
	}
	return n
}

// Zipf returns a sample in [0, n) from a Zipf-like distribution with exponent
// theta (0 < theta). Small indices are most probable. It uses a simple
// inverse-power transform that is adequate for workload synthesis (exact
// Zipfian CDF inversion is unnecessary for our purposes and this transform is
// fast and deterministic).
func (s *Source) Zipf(n int, theta float64) int {
	if n <= 1 {
		return 0
	}
	// Draw u in (0,1], map through u^theta to skew toward 0.
	u := 1 - s.Float64() // (0, 1]
	v := powFloat(u, theta)
	idx := int(v * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// powFloat computes u**theta for u in (0,1] and theta > 0 without importing
// math (keeping the package dependency-free matters less than determinism;
// exp/log are correctly rounded on all platforms Go supports, but a local
// implementation documents exactly what we compute). It uses
// exp(theta*ln(u)) via the standard library would be fine; we implement a
// small series-free approach: repeated square-and-multiply on the binary
// expansion of theta, with a fixed 20-bit fraction.
func powFloat(u, theta float64) float64 {
	if u >= 1 {
		return 1
	}
	if u <= 0 {
		return 0
	}
	// Integer part by repeated multiplication.
	result := 1.0
	ip := int(theta)
	frac := theta - float64(ip)
	base := u
	for ip > 0 {
		if ip&1 == 1 {
			result *= base
		}
		base *= base
		ip >>= 1
	}
	// Fractional part via 20 binary digits: u^(1/2), u^(1/4), ...
	root := u
	for i := 0; i < 20 && frac > 0; i++ {
		root = sqrtFloat(root)
		frac *= 2
		if frac >= 1 {
			result *= root
			frac -= 1
		}
	}
	return result
}

// sqrtFloat is Newton's method square root for u in (0, 1].
func sqrtFloat(u float64) float64 {
	if u <= 0 {
		return 0
	}
	x := u
	if x > 0.5 {
		x = 1 // better starting point near 1
	}
	for i := 0; i < 30; i++ {
		x = 0.5 * (x + u/x)
	}
	return x
}

// Perm fills p with a uniformly random permutation of [0, len(p)).
func (s *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// State returns the generator's full internal state: two sources with equal
// states yield identical streams from here on.
func (s *Source) State() [4]uint64 { return s.s }

// Fork returns a new Source whose stream is deterministically derived from
// the receiver's current state and the given label. Forking lets independent
// subsystems (e.g., each address space in a workload) draw from independent
// streams while remaining reproducible.
func (s *Source) Fork(label uint64) *Source {
	mix := s.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	return New(mix)
}
