// Package sweep is a single-pass multi-configuration cache-simulation
// engine: for a fixed line size it computes the exact per-set LRU hit/miss
// counts of an entire capacity × associativity grid in ONE pass over a
// trace, instead of one full simulation per configuration.
//
// The engine generalizes the Mattson stack machinery in internal/locality
// from the fully-associative spectrum to set-associative grids: for LRU
// with bit-selection indexing, a reference hits a cache with S sets and
// associativity A iff its PER-SET stack distance — the number of distinct
// lines mapping to the same set touched since the previous access to this
// line, inclusive — is at most A (Mattson's inclusion property applied
// within each set). The engine therefore maintains, for every distinct set
// count in the grid, an array of per-set recency stacks truncated at the
// largest associativity any grid cell needs, and one histogram of the
// depths at which touched lines were found (the truncation depth when
// absent). One move-to-front per touched line per set count is the whole
// per-access cost, whatever the number of cells; a cell's misses are folded
// out of its set count's histogram only when they are read — the sum from
// the cell's associativity to the truncation depth (Mattson et al., IBM
// Systems Journal, 1970).
//
// The kernel is line-granular: it reads the trace as sequential runs (Section
// 4's observation that instruction fetch is sequential), and within a run
// only a line's first access can change stack state, so each touched line
// costs one stack operation however many instructions it holds. Every pass —
// exact, warm or skip time sampling, set sampling — is a schedule the same
// loop walks over a trace.RunReader (sampled.go).
//
// Complexity: O(lines touched · Σ_S Amax(S)) worst case with tiny constants,
// versus O(configs · refs) full cache simulations for the per-config path.
// The common case — a re-touch of the most recent line of its set — is a
// single compare for all set counts at once: set counts are visited
// coarsest first, and a line on top of a coarser stack is on top of every
// finer one (each finer set holds a subset of one coarser set's lines), so
// the first top-of-stack hit settles the rest of the grid unchanged. Space
// is O(Σ_S S·Amax(S)) words, independent of trace length. The miss counts
// are bit-identical to replaying each configuration through cache.Cache /
// fetch.NewBlocking — internal/check's sweep differential enforces exactly
// that.
package sweep

import (
	"context"

	"ibsim/internal/trace"
)

// Cell is one cache geometry of a grid, at the pass's fixed line size:
// Sets × Assoc lines, i.e. Sets·Assoc·LineSize bytes of capacity.
type Cell struct {
	// Sets is the number of sets; a power of two.
	Sets int
	// Assoc is the set associativity (>= 1); Sets == 1 with Assoc == lines
	// models a fully-associative cache.
	Assoc int
}

// Size returns the cell's capacity in bytes at the given line size.
func (c Cell) Size(lineSize int) int { return c.Sets * c.Assoc * lineSize }

// Matrix is the result of one pass: per-cell demand-miss counts plus the
// shared access and first-touch totals.
type Matrix struct {
	// LineSize is the pass's line size in bytes.
	LineSize int
	// Accesses is the number of instruction fetches processed (every
	// cell's hit+miss total).
	Accesses int64
	// Distinct is the number of distinct lines touched — the compulsory
	// (first-touch) miss count, included in every cell's Misses. Counted
	// only when the pass was run with CountDistinct; otherwise 0.
	Distinct int64
	// Cells echoes the grid, parallel to Misses.
	Cells []Cell
	// Misses holds each cell's total demand misses.
	Misses []int64
}

// Pass configures one exact sweep over a trace.
type Pass struct {
	// LineSize is the line size in bytes shared by every cell; a power of
	// two >= trace.InstrBytes (the kernel settles whole instructions per
	// line).
	LineSize int
	// Cells is the capacity × associativity grid.
	Cells []Cell
	// CountDistinct additionally counts distinct lines (compulsory
	// misses) into Matrix.Distinct; it costs one hash-set probe per touched
	// line, so it is off unless a Three-Cs style decomposition needs it.
	CountDistinct bool
	// Ctx, when non-nil, lets a long pass be cancelled: the kernel polls it
	// every few thousand runs and returns ctx.Err() promptly instead of
	// finishing the trace. Nil runs to completion.
	Ctx context.Context
}

// refChunk bounds how many references Run compacts at a time, so the pass
// never holds more than one chunk's runs.
const refChunk = 1 << 12

// Run executes the pass over a reference trace and returns the miss matrix.
// Only instruction fetches count, per the paper's Section 5 method ("we only
// consider instruction references"); the trace is run-compacted chunk by
// chunk and settled by the line-granular kernel.
func (p Pass) Run(refs []trace.Ref) (*Matrix, error) {
	st, err := p.sampled().prepare()
	if err != nil {
		return nil, err
	}
	runs := make([]trace.Run, 0, refChunk/4) // IBS traces average ~7 instructions per run
	for len(refs) > 0 {
		chunk := refs[:min(len(refs), refChunk)]
		refs = refs[len(chunk):]
		runs = trace.CompactAppend(runs[:0], chunk)
		if err := st.measure(runs); err != nil {
			return nil, err
		}
	}
	st.fold()
	return st.m, nil
}

// RunBlocks executes the pass over a block-granular trace (a columnar file
// via mmap, or any block-sliced trace) one block at a time: live memory is
// one decoded block plus the O(grid) stacks, independent of trace length.
func (p Pass) RunBlocks(bs trace.BlockSource) (*Matrix, error) {
	sm, err := p.sampled().Sweep(trace.NewBlockReader(bs))
	if err != nil {
		return nil, err
	}
	return &sm.Matrix, nil
}

// sampled returns the pass as an unsampled SampledPass: the kernel's exact
// schedule.
func (p Pass) sampled() SampledPass {
	return SampledPass{LineSize: p.LineSize, Cells: p.Cells, CountDistinct: p.CountDistinct, Ctx: p.Ctx}
}

// groupCell is one grid cell's slot within its set-count group.
type groupCell struct {
	assoc int
	out   int // index into Matrix.Misses
}

// group aggregates every cell sharing one set count: a single truncated
// recency stack array and one stack-depth histogram serve them all.
type group struct {
	mask  uint64 // Sets - 1
	amax  int    // deepest associativity among the group's cells
	stack []uint64
	// hist counts the measured first accesses that found their line below
	// the top of its stack, by depth (0 on top): 1..amax-1, or amax when
	// absent, at hist[k*amax+depth-1] for cluster k. An assoc-way cell
	// misses exactly those at depth >= assoc.
	hist  []int64
	cells []groupCell
}

// lineSet is a minimal open-addressing hash set over non-zero uint64 keys,
// used for first-touch counting without per-access map overhead.
type lineSet struct {
	tab  []uint64
	n    int
	mask uint64
}

func newLineSet() *lineSet {
	const initial = 1 << 10
	return &lineSet{tab: make([]uint64, initial), mask: initial - 1}
}

// add inserts key (non-zero) and reports whether it was absent.
func (s *lineSet) add(key uint64) bool {
	i := (key * 0x9e3779b97f4a7c15) & s.mask
	for {
		switch s.tab[i] {
		case key:
			return false
		case 0:
			s.tab[i] = key
			s.n++
			if 4*s.n > 3*len(s.tab) {
				s.grow()
			}
			return true
		}
		i = (i + 1) & s.mask
	}
}

func (s *lineSet) grow() {
	old := s.tab
	s.tab = make([]uint64, 2*len(old))
	s.mask = uint64(len(s.tab) - 1)
	s.n = 0
	for _, k := range old {
		if k != 0 {
			s.add(k)
		}
	}
}
