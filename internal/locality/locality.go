// Package locality computes the locality statistics that underlie every
// curve in the paper: LRU stack-distance histograms (from which the miss
// ratio of *any* fully-associative LRU cache size can be read off), working
// sets, sequential run lengths (which bound line-size and stream-buffer
// benefits), and per-domain footprints.
//
// These are the quantities our synthetic workload models are calibrated to
// reproduce; the package lets a user characterize any reference stream —
// synthetic or loaded from an IBSTRACE file — the way the paper's authors
// characterized theirs.
package locality

import (
	"fmt"
	"math/bits"
	"strings"

	"ibsim/internal/trace"
)

// Analysis accumulates locality statistics over an instruction stream.
type Analysis struct {
	lineShift uint
	lineSize  int

	// stack gives every access its LRU stack distance.
	stack *StackDist

	// distHist[k] counts accesses with stack distance in bucket k. Buckets
	// are ceil-log2-spaced: bucket 0 holds distance 1, bucket k≥1 holds
	// distances in (2^(k-1), 2^k]. This convention makes MissRatioAt exact
	// for every power-of-two cache size: a cache of 2^k lines hits buckets
	// 0..k and misses buckets k+1 and up.
	distHist [40]int64
	cold     int64

	// Run-length tracking: a run ends when the next instruction is not the
	// next sequential address.
	prevAddr  uint64
	runLen    int64
	runHist   [32]int64 // log2 buckets of completed run lengths
	runsTotal int64

	// Footprint per domain (distinct lines).
	domainLines [trace.NumDomains]map[uint64]struct{}

	instructions int64
}

// New returns an Analysis at the given line granularity (bytes; a power of
// two — 32 matches the paper's simulations).
func New(lineSize int) (*Analysis, error) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("locality: line size %d must be a positive power of two", lineSize)
	}
	a := &Analysis{lineSize: lineSize, stack: NewStackDist()}
	for l := lineSize; l > 1; l >>= 1 {
		a.lineShift++
	}
	for d := range a.domainLines {
		a.domainLines[d] = make(map[uint64]struct{})
	}
	return a, nil
}

// MustNew is New but panics on error.
func MustNew(lineSize int) *Analysis {
	a, err := New(lineSize)
	if err != nil {
		panic(err)
	}
	return a
}

// Observe records one instruction fetch. Non-instruction references should
// be filtered by the caller (or use Analyze).
func (a *Analysis) Observe(r trace.Ref) {
	a.instructions++
	line := r.Addr >> a.lineShift
	if int(r.Domain) < len(a.domainLines) {
		a.domainLines[r.Domain][line] = struct{}{}
	}

	// Run lengths.
	if a.runLen > 0 && r.Addr == a.prevAddr+4 {
		a.runLen++
	} else {
		if a.runLen > 0 {
			a.bumpRun(a.runLen)
		}
		a.runLen = 1
	}
	a.prevAddr = r.Addr

	// Stack distance.
	dist, first := a.stack.Touch(line)
	if first {
		a.cold++
		return
	}
	b := bits.Len64(uint64(dist) - 1) // ceil(log2(dist)); dist=1 → 0
	if b >= len(a.distHist) {
		b = len(a.distHist) - 1
	}
	a.distHist[b]++
}

func (a *Analysis) bumpRun(n int64) {
	a.runsTotal++
	b := bits.Len64(uint64(n)) - 1
	if b >= len(a.runHist) {
		b = len(a.runHist) - 1
	}
	a.runHist[b]++
}

// StackDist computes LRU stack distances with Mattson's algorithm: a Fenwick
// tree over access timestamps counts how many *distinct* lines have been
// touched since a line's previous access (each line keeps exactly one marker
// bit, at its most recent access time).
//
// Fenwick trees cannot be grown by appending zeros (new parent nodes would
// miss earlier updates), so a raw presence array is kept alongside and the
// tree is rebuilt whenever capacity doubles — amortized O(log n) per touch.
type StackDist struct {
	last map[uint64]int64 // line → timestamp of its most recent access
	mark []bool           // mark[t]: some line's most recent access was at t (1-based)
	bit  []int64          // Fenwick tree over mark
	now  int64
}

// NewStackDist returns an empty stack.
func NewStackDist() *StackDist {
	return &StackDist{
		last: make(map[uint64]int64),
		mark: make([]bool, 64),
		bit:  make([]int64, 64),
	}
}

// Touch records an access to line, returning the LRU stack distance (the
// number of distinct lines accessed since the previous access to line,
// including line itself) and whether this was the line's first touch.
func (s *StackDist) Touch(line uint64) (dist int64, first bool) {
	s.now++
	if int(s.now) >= len(s.mark) {
		s.grow()
	}
	prev, seen := s.last[line]
	if seen {
		// Distinct lines touched strictly after prev, plus the line itself.
		dist = s.prefix(s.now-1) - s.prefix(prev) + 1
		s.set(prev, false)
	}
	s.set(s.now, true)
	s.last[line] = s.now
	return dist, !seen
}

// grow doubles capacity and rebuilds the Fenwick tree from mark.
func (s *StackDist) grow() {
	newCap := len(s.mark) * 2
	mark := make([]bool, newCap)
	copy(mark, s.mark)
	s.mark = mark
	s.bit = make([]int64, newCap)
	for i := 1; i < len(s.mark); i++ {
		if s.mark[i] {
			s.add(int64(i), 1)
		}
	}
}

// set flips the presence bit at timestamp t.
func (s *StackDist) set(t int64, on bool) {
	if s.mark[t] == on {
		return
	}
	s.mark[t] = on
	if on {
		s.add(t, 1)
	} else {
		s.add(t, -1)
	}
}

func (s *StackDist) add(i, delta int64) {
	for ; int(i) < len(s.bit); i += i & (-i) {
		s.bit[i] += delta
	}
}

func (s *StackDist) prefix(i int64) int64 {
	var sum int64
	for ; i > 0; i -= i & (-i) {
		sum += s.bit[i]
	}
	return sum
}

// Analyze observes the instruction fetches of refs.
func Analyze(lineSize int, refs []trace.Ref) (*Analysis, error) {
	a, err := New(lineSize)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		if r.Kind == trace.IFetch {
			a.Observe(r)
		}
	}
	return a, nil
}

// Instructions returns the number of instruction fetches observed.
func (a *Analysis) Instructions() int64 { return a.instructions }

// Footprint returns the total distinct lines touched, in bytes.
func (a *Analysis) Footprint() int64 {
	var lines int64
	for d := range a.domainLines {
		lines += int64(len(a.domainLines[d]))
	}
	return lines * int64(a.lineSize)
}

// DomainFootprint returns the distinct bytes touched in one domain.
func (a *Analysis) DomainFootprint(d trace.Domain) int64 {
	if int(d) >= len(a.domainLines) {
		return 0
	}
	return int64(len(a.domainLines[d])) * int64(a.lineSize)
}

// MissRatioAt returns the miss ratio a fully-associative LRU cache of the
// given byte capacity would achieve on the observed stream — read directly
// off the stack-distance histogram (Mattson's one-pass result). Exact for
// power-of-two capacities; a linear within-bucket apportionment covers the
// rest. Compulsory (first-touch) misses are included; see SteadyMissRatioAt
// to exclude them.
func (a *Analysis) MissRatioAt(capacityBytes int) float64 {
	if a.instructions == 0 {
		return 0
	}
	return float64(a.cold+a.steadyMisses(capacityBytes)) / float64(a.instructions)
}

// SteadyMissRatioAt is MissRatioAt without the compulsory component — the
// steady-state miss ratio a long-running workload converges to.
func (a *Analysis) SteadyMissRatioAt(capacityBytes int) float64 {
	if a.instructions == 0 {
		return 0
	}
	return float64(a.steadyMisses(capacityBytes)) / float64(a.instructions)
}

// steadyMisses counts non-compulsory misses at the given capacity.
func (a *Analysis) steadyMisses(capacityBytes int) int64 {
	lines := int64(capacityBytes / a.lineSize)
	var misses int64
	for b, n := range a.distHist {
		// Bucket 0 holds distance 1; bucket b≥1 holds (2^(b-1), 2^b]. A
		// cache of `lines` lines misses every access with distance > lines.
		if b == 0 {
			if lines < 1 {
				misses += n
			}
			continue
		}
		lo := int64(1) << (b - 1) // distances in (lo, hi]
		hi := int64(1) << b
		switch {
		case lo >= lines:
			misses += n
		case hi > lines:
			// Straddling: distances lines+1..hi miss, out of hi-lo values.
			misses += int64(float64(n) * float64(hi-lines) / float64(hi-lo))
		}
	}
	return misses
}

// WorkingSet returns the cache size (bytes, power of two) needed to bring
// the steady-state (non-compulsory) fully-associative LRU miss ratio below
// target. Returns 0 if even the largest tracked size cannot.
func (a *Analysis) WorkingSet(target float64) int64 {
	for sz := int64(a.lineSize); sz <= int64(a.lineSize)<<38; sz <<= 1 {
		if a.SteadyMissRatioAt(int(sz)) <= target {
			return sz
		}
	}
	return 0
}

// MeanRunLength returns the average sequential run length in instructions
// (a run ends at any taken control transfer). Long lines and stream buffers
// only help while runs last.
func (a *Analysis) MeanRunLength() float64 {
	total := a.runsTotal
	pending := int64(0)
	if a.runLen > 0 {
		pending = 1
	}
	if total+pending == 0 {
		return 0
	}
	return float64(a.instructions) / float64(total+pending)
}

// RunHistogram returns the log2-bucketed histogram of completed run lengths:
// element k counts runs of [2^k, 2^(k+1)) instructions.
func (a *Analysis) RunHistogram() []int64 {
	out := make([]int64, len(a.runHist))
	copy(out, a.runHist[:])
	return out
}

// ColdFraction returns the fraction of fetches that touched a line for the
// first time.
func (a *Analysis) ColdFraction() float64 {
	if a.instructions == 0 {
		return 0
	}
	return float64(a.cold) / float64(a.instructions)
}

// Report renders a human-readable locality summary.
func (a *Analysis) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instructions:      %d\n", a.instructions)
	fmt.Fprintf(&b, "code footprint:    %.1f KB (%d-byte lines)\n", float64(a.Footprint())/1024, a.lineSize)
	var doms []string
	for d := 0; d < trace.NumDomains; d++ {
		if fp := a.DomainFootprint(trace.Domain(d)); fp > 0 {
			doms = append(doms, fmt.Sprintf("%s %.0fKB", trace.Domain(d), float64(fp)/1024))
		}
	}
	fmt.Fprintf(&b, "per-domain:        %s\n", strings.Join(doms, ", "))
	fmt.Fprintf(&b, "mean run length:   %.1f instructions\n", a.MeanRunLength())
	fmt.Fprintf(&b, "cold fetches:      %.2f%%\n", 100*a.ColdFraction())
	b.WriteString("fully-assoc LRU miss ratio by size:\n")
	for _, kb := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		fmt.Fprintf(&b, "  %4d KB: %.3f%%\n", kb, 100*a.MissRatioAt(kb*1024))
	}
	if ws := a.WorkingSet(0.001); ws > 0 {
		fmt.Fprintf(&b, "working set (0.1%% steady-state miss target): %.0f KB\n", float64(ws)/1024)
	}
	return b.String()
}
