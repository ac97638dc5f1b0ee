// Package threec decomposes cache misses into the Three-Cs categories —
// compulsory, capacity, and conflict (Hill's model, used by the paper's
// Figure 1).
//
// Two classifiers are provided:
//
//   - ClassifyApprox reproduces the paper's methodology exactly: "Capacity
//     misses were approximated by simulating an 8-way, set-associative cache
//     to remove most conflict misses. Conflict misses were found by
//     simulating a direct-mapped cache and counting the number of additional
//     misses compared to the 8-way set-associative simulation."
//   - ClassifyExact implements Mattson's stack algorithm: a miss whose LRU
//     stack distance exceeds the cache's line count is a capacity miss, a
//     first touch is compulsory, anything else that misses in the real cache
//     is a conflict miss. It is the ground truth the approximation is
//     validated against in our tests.
package threec

import (
	"ibsim/internal/cache"
	"ibsim/internal/locality"
	"ibsim/internal/trace"
)

// Breakdown reports a Three-Cs decomposition. Compulsory + Capacity +
// Conflict == Total (total misses of the direct-mapped / configured cache).
type Breakdown struct {
	Accesses   int64
	Compulsory int64
	Capacity   int64
	Conflict   int64
	Total      int64
}

// MPI returns total misses per instruction (per access).
func (b Breakdown) MPI() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.Total) / float64(b.Accesses)
}

// CompulsoryMPI returns compulsory misses per access.
func (b Breakdown) CompulsoryMPI() float64 { return ratio(b.Compulsory, b.Accesses) }

// CapacityMPI returns capacity misses per access.
func (b Breakdown) CapacityMPI() float64 { return ratio(b.Capacity, b.Accesses) }

// ConflictMPI returns conflict misses per access.
func (b Breakdown) ConflictMPI() float64 { return ratio(b.Conflict, b.Accesses) }

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ClassifyApprox runs the paper's two-simulation approximation for a cache of
// the given size and line size: the "total" cache is direct-mapped; the
// capacity reference is 8-way set-associative (or fully associative when the
// cache holds fewer than 8 lines). Compulsory misses are counted as unique
// lines touched.
func ClassifyApprox(size, lineSize int, refs []trace.Ref) Breakdown {
	assocRef := 8
	if lines := size / lineSize; lines < 8 {
		assocRef = lines
	}
	dm := cache.MustNew(cache.Config{Size: size, LineSize: lineSize, Assoc: 1})
	sa := cache.MustNew(cache.Config{Size: size, LineSize: lineSize, Assoc: assocRef})
	seen := make(map[uint64]struct{})
	var b Breakdown
	lineShift := shiftFor(lineSize)
	for _, r := range refs {
		b.Accesses++
		dm.Access(r.Addr)
		sa.Access(r.Addr)
		la := r.Addr >> lineShift
		if _, dup := seen[la]; !dup {
			seen[la] = struct{}{}
			b.Compulsory++
		}
	}
	return FromApproxCounts(b.Accesses, b.Compulsory, dm.Stats().Misses, sa.Stats().Misses)
}

// ApproxAssocRef returns the set associativity of the paper's capacity
// reference cache for a geometry with the given line count: 8-way, or fully
// associative when the cache holds fewer than 8 lines.
func ApproxAssocRef(lines int) int {
	if lines < 8 {
		return lines
	}
	return 8
}

// FromApproxCounts assembles the paper's approximation Breakdown from
// already-simulated counts: total accesses, compulsory (first-touch) misses,
// the direct-mapped cache's misses, and the set-associative reference
// cache's misses. It applies the same clamping and re-balancing as
// ClassifyApprox, so a miss matrix computed by the single-pass sweep engine
// yields bit-identical Breakdowns to the two-simulation path.
func FromApproxCounts(accesses, compulsory, dmMiss, saMiss int64) Breakdown {
	b := Breakdown{Accesses: accesses, Compulsory: compulsory, Total: dmMiss}
	b.Conflict = dmMiss - saMiss
	if b.Conflict < 0 {
		// 8-way LRU can occasionally miss where DM hits; clamp as the paper
		// implicitly does (it reports only non-negative components).
		b.Conflict = 0
	}
	b.Capacity = saMiss - b.Compulsory
	if b.Capacity < 0 {
		b.Capacity = 0
	}
	// Re-balance so components sum to the total after clamping.
	if b.Compulsory+b.Capacity+b.Conflict != b.Total {
		b.Capacity = b.Total - b.Compulsory - b.Conflict
		if b.Capacity < 0 {
			b.Capacity = 0
			b.Conflict = b.Total - b.Compulsory
			if b.Conflict < 0 {
				b.Conflict = 0
			}
		}
	}
	return b
}

func shiftFor(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// ClassifyExact classifies every miss of the configured cache using LRU
// stack distances: first touch → compulsory; stack distance > lines →
// capacity; otherwise → conflict. The configured cache may have any
// associativity; a fully-associative LRU cache by definition has zero
// conflict misses under this classifier.
func ClassifyExact(cfg cache.Config, refs []trace.Ref) (Breakdown, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return Breakdown{}, err
	}
	lines := int64(cfg.Lines())
	sd := newStackDist()
	var b Breakdown
	lineShift := shiftFor(cfg.LineSize)
	for _, r := range refs {
		b.Accesses++
		la := r.Addr >> lineShift
		dist, first := sd.Touch(la)
		if c.Access(r.Addr) {
			continue
		}
		b.Total++
		switch {
		case first:
			b.Compulsory++
		case dist > lines:
			b.Capacity++
		default:
			b.Conflict++
		}
	}
	return b, nil
}

// newStackDist returns the Mattson stack ClassifyExact reads stack
// distances from.
func newStackDist() *locality.StackDist { return locality.NewStackDist() }
