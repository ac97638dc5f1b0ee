package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ibsim/internal/sampling"
	"ibsim/internal/trace"
)

// Sampled sweep: the same capacity × associativity grid as Pass, but
// simulating only a statistical sample of the trace and reporting each cell
// as a sampling.Estimate{MPI, CI95, Coverage} instead of a bare count.
//
// Two orthogonal sampling dimensions, composable:
//
//   - Set sampling (SetMod/SetMatch): only lines whose line address is
//     congruent to SetMatch modulo SetMod are simulated. With bit-selection
//     indexing a cache with S >= SetMod sets maps those lines onto exactly
//     S/SetMod whole sets, and LRU sets are independent, so the simulation
//     is EXACT within the sampled subset — the only error is extrapolating
//     from S/SetMod sets to S. Work drops by ~SetMod: the engine walks the
//     run-compacted trace line-granularly and jumps straight to matching
//     lines. The confidence interval treats each sampled set group as one
//     cluster.
//
//   - Time sampling (Window/Period): out of every Period instructions the
//     first Window are measured. Warm processes skipped spans line-granularly
//     so stacks stay current ("functional warming", unbiased); !Warm skips
//     them entirely — fastest, but windows start with stale stack state, the
//     trap-driven-tool bias internal/sampling quantifies. Each window is one
//     cluster.
//
// With neither dimension enabled (or Window == Period) the pass measures
// everything and its counts are the exact sweep's: Pass is this schedule.
//
// The engine processes runs at line granularity: within one sequential run a
// line's first access is the only one that can change stack state (addresses
// strictly increase, so accesses between a line's first and last touch all
// hit it at distance 1), so each touched line costs one stack operation
// regardless of how many instructions it holds. The same property makes the
// kernel blind to how a run is cut into spans, which is what lets one loop
// read any trace.RunReader.
type SampledPass struct {
	// LineSize is the line size in bytes shared by every cell; a power of
	// two >= trace.InstrBytes.
	LineSize int
	// Cells is the capacity × associativity grid.
	Cells []Cell
	// SetMod/SetMatch select the sampled line-address class (line addresses
	// congruent to SetMatch mod SetMod). SetMod must be a power of two and
	// every cell must have Sets >= SetMod, so the class maps onto whole
	// sets; SetMod <= 1 disables set sampling.
	SetMod   int
	SetMatch int
	// Window/Period schedule time sampling: the first Window of every
	// Period instructions are measured. Period 0 (with Window 0) disables;
	// Window == Period measures everything.
	Window int64
	Period int64
	// Warm keeps stacks current through unmeasured spans; false skips them.
	// Irrelevant without time sampling.
	Warm bool
	// CountDistinct counts distinct measured lines into
	// SampledMatrix.Distinct.
	CountDistinct bool
	// Ctx, when non-nil, cancels a long pass between runs.
	Ctx context.Context
}

// SampledMatrix is the result of one sampled sweep.
type SampledMatrix struct {
	// Matrix holds the measured counts: Accesses is the measured
	// instruction count (equal to SampledInstructions), Misses each cell's
	// measured misses within the sampled sets/windows — NOT extrapolated —
	// and Distinct the distinct measured lines (0 unless CountDistinct).
	// For an unsampled pass it is exactly the exact sweep's matrix.
	Matrix
	// TotalInstructions is the full trace length the estimates extrapolate
	// to; SampledInstructions is how many were actually measured.
	TotalInstructions   int64
	SampledInstructions int64
	// Estimates holds each cell's extrapolated MPI estimate with its 95%
	// confidence interval, parallel to Cells.
	Estimates []sampling.Estimate
}

// Coverage returns the measured fraction of the trace.
func (m *SampledMatrix) Coverage() float64 {
	if m.TotalInstructions == 0 {
		return 0
	}
	return float64(m.SampledInstructions) / float64(m.TotalInstructions)
}

// sampledRunCheckMask sets the cancellation polling stride in runs (runs
// average a handful of instructions, so this is a few ten-thousand
// instructions of latency at worst).
const sampledRunCheckMask = 1<<12 - 1

// sampledState carries the hot-loop state of one pass.
type sampledState struct {
	p          SampledPass
	timeSample bool    // Window < Period: windows cluster the estimate
	total      int64   // instructions read so far
	m          *Matrix // Accesses = measured instructions, Misses = measured misses, as of the last fold
	groups     []*group
	seen       *lineSet
	shift      uint
	ipl        int64 // instructions per line (power of two)
	iplSh      uint  // log2(ipl): div/mod by ipl as shifts in the per-run path

	// Set sampling: lines ≡ match (mod mod); mod is 1 without it. Only sets
	// congruent to match are ever touched, so stacks are allocated compactly
	// — one row per SAMPLED set — and rowShift (= log2(mod)) maps a set
	// index to its row. The ~mod× smaller footprint keeps the stacks
	// cache-resident, which is where the sampled pass wins its time.
	mod      uint64
	match    uint64
	rowShift uint

	// Clusters: set sampling without time sampling clusters the estimate by
	// sampled set, so histograms and instruction tallies keep one row per
	// sampled set of the finest set count (kmask, the row-index bits that
	// name a cluster); otherwise kmask is 0 and each keeps one row. A
	// coarser group's cluster k gathers the finest rows j with
	// j & its row mask == k.
	kmask uint64
	instr []int64 // measured instructions per cluster row

	// Per-window clustering (time sampling).
	winClusters [][]sampling.Cluster // [cell][window]
	winPrev     []int64              // per-cell misses at the previous window's close
}

// Sweep runs the pass over any run source — in-memory runs, a block-indexed
// file, a checkpointed generator — walking its schedule: the whole trace
// once, or per time window the measured span plus (Warm) the gap. It is the
// package's one driver; every other entry point adapts a trace form to it.
func (p SampledPass) Sweep(src trace.RunReader) (*SampledMatrix, error) {
	st, err := p.prepare()
	if err != nil {
		return nil, err
	}
	total, err := st.walk(src)
	if err != nil {
		return nil, err
	}
	return st.assemble(total), nil
}

// Run executes the sampled pass over an in-memory run-compacted trace.
func (p SampledPass) Run(runs []trace.Run) (*SampledMatrix, error) {
	return p.Sweep(trace.NewRunReader(runs))
}

// RunSeek executes a skip-mode time-sampled pass over a seekable reader
// (synth.SeekSource, a checkpointed generator), generating only the
// measured windows: O(sampled refs + windows · checkpoint interval) instead
// of O(n). It requires Window < Period and Warm == false — warm mode and
// set-only sampling must walk every instruction, so seeking could skip
// nothing. Set sampling composed with skip-mode time sampling is fine.
func (p SampledPass) RunSeek(src trace.RunReader) (*SampledMatrix, error) {
	if p.Period <= p.Window || p.Warm {
		return nil, fmt.Errorf("sweep: RunSeek needs skip-mode time sampling (window < period, not warm)")
	}
	return p.Sweep(src)
}

// walk reads the pass's schedule from src and returns the trace length: the
// whole trace in one read, or sampling.Schedule's windows, each closed into
// one cluster per cell as soon as it has been read.
func (st *sampledState) walk(src trace.RunReader) (int64, error) {
	if !st.timeSample {
		if err := src.ReadRuns(0, math.MaxInt64, st.measure); err != nil {
			return 0, err
		}
		return st.total, nil
	}
	v := sampling.Visit{Measure: st.measure, Close: st.closeWindow}
	if st.p.Warm {
		v.Warm = st.warm
	}
	return st.p.schedule().Walk(src, v)
}

// schedule returns the pass's time windows.
func (p SampledPass) schedule() sampling.Schedule {
	return sampling.Schedule{Window: p.Window, Period: p.Period}
}

// measure settles measured runs — through the set-only loop when set
// sampling is the only dimension, else span by span — counting the
// instructions they hold into st.total.
func (st *sampledState) measure(runs []trace.Run) error {
	if st.mod > 1 && !st.timeSample {
		return st.runSetOnly(runs)
	}
	return st.spans(runs, true)
}

// warm advances stack state over an unmeasured gap.
func (st *sampledState) warm(runs []trace.Run) error { return st.spans(runs, false) }

// spans settles runs one span each, polling the context every few thousand
// runs.
func (st *sampledState) spans(runs []trace.Run, measured bool) error {
	var n int64
	for ri, r := range runs {
		if ri&sampledRunCheckMask == 0 {
			if err := st.poll(); err != nil {
				return err
			}
		}
		n += r.Len
		st.span(r.Start, r.Len, measured)
	}
	st.total += n
	return nil
}

// poll returns the pass context's error, if any.
func (st *sampledState) poll() error {
	if st.p.Ctx == nil {
		return nil
	}
	return st.p.Ctx.Err()
}

// Validate checks the pass's parameters without building its state: the
// line size, the grid, the set-sampling class and the time-sampling
// schedule. Sweep checks them first.
func (p SampledPass) Validate() error {
	if p.LineSize < trace.InstrBytes {
		return fmt.Errorf("sweep: line size %d must be >= the %d-byte instruction size", p.LineSize, trace.InstrBytes)
	}
	if p.LineSize&(p.LineSize-1) != 0 {
		return fmt.Errorf("sweep: line size %d must be a positive power of two", p.LineSize)
	}
	if len(p.Cells) == 0 {
		return fmt.Errorf("sweep: empty cell grid")
	}
	for i, c := range p.Cells {
		if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
			return fmt.Errorf("sweep: cell %d: set count %d must be a positive power of two", i, c.Sets)
		}
		if c.Assoc < 1 {
			return fmt.Errorf("sweep: cell %d: associativity %d must be >= 1", i, c.Assoc)
		}
	}
	if p.SetMod > 1 {
		if p.SetMod&(p.SetMod-1) != 0 {
			return fmt.Errorf("sweep: set-sampling modulus %d must be a power of two", p.SetMod)
		}
		if p.SetMatch < 0 || p.SetMatch >= p.SetMod {
			return fmt.Errorf("sweep: set-sampling match %d outside [0,%d)", p.SetMatch, p.SetMod)
		}
		for i, c := range p.Cells {
			if c.Sets < p.SetMod {
				return fmt.Errorf("sweep: cell %d has %d sets < set-sampling modulus %d (sampled lines would not cover whole sets)", i, c.Sets, p.SetMod)
			}
		}
	} else if p.SetMatch != 0 {
		return fmt.Errorf("sweep: set-sampling match %d without a modulus", p.SetMatch)
	}
	if p.Window != 0 || p.Period != 0 {
		return p.schedule().Validate()
	}
	return nil
}

// prepare validates the pass and builds its state: the result matrix, one
// group per set count with its stacks and histograms, and the optional
// first-touch set.
func (p SampledPass) prepare() (*sampledState, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := &sampledState{
		p: p,
		// Window == Period measures everything: no windows to cluster by.
		timeSample: p.schedule().Windowed(),
		m:          &Matrix{LineSize: p.LineSize, Cells: append([]Cell(nil), p.Cells...), Misses: make([]int64, len(p.Cells))},
		ipl:        int64(p.LineSize / trace.InstrBytes),
		mod:        1,
	}
	bySets := make(map[int]*group)
	for i, c := range p.Cells {
		g, ok := bySets[c.Sets]
		if !ok {
			g = &group{mask: uint64(c.Sets - 1)}
			bySets[c.Sets] = g
			st.groups = append(st.groups, g)
		}
		g.amax = max(g.amax, c.Assoc)
		g.cells = append(g.cells, groupCell{assoc: c.Assoc, out: i})
	}
	// Coarsest set count first: with bit-selection indexing each finer set
	// holds a subset of one coarser set's lines, so a line on top of its
	// coarser stack is on top of every finer one too, and the kernel stops
	// at the first group where it finds the line on top.
	sort.Slice(st.groups, func(i, j int) bool { return st.groups[i].mask < st.groups[j].mask })
	if p.CountDistinct {
		st.seen = newLineSet()
	}
	for v := p.LineSize; v > 1; v >>= 1 {
		st.shift++
	}
	for v := st.ipl; v > 1; v >>= 1 {
		st.iplSh++
	}
	if p.SetMod > 1 {
		st.mod = uint64(p.SetMod)
		st.match = uint64(p.SetMatch)
		for v := st.mod; v > 1; v >>= 1 {
			st.rowShift++
		}
	}
	if st.timeSample {
		st.winClusters = make([][]sampling.Cluster, len(p.Cells))
		st.winPrev = make([]int64, len(p.Cells))
	} else if st.mod > 1 {
		st.kmask = st.groups[len(st.groups)-1].mask >> st.rowShift
	}
	st.instr = make([]int64, st.kmask+1)
	for _, g := range st.groups {
		// One stack row per set this pass can actually touch — all of them,
		// or the sampled congruence class (rowShift compaction) — and one
		// histogram row per cluster.
		rows := g.mask >> st.rowShift
		g.stack = make([]uint64, int(rows+1)*g.amax)
		g.hist = make([]int64, int(rows&st.kmask+1)*g.amax)
	}
	return st, nil
}

// runSetOnly is the set-sampling-only hot loop: every instruction is
// temporally measured, so the only work is locating the sampled congruence
// class within each run — typically zero or one lines. Equivalent to calling
// span(r.Start, r.Len, true) per run; specialized so the per-run cost stays
// a few nanoseconds (the whole point of the ~SetMod× speedup).
func (st *sampledState) runSetOnly(runs []trace.Run) error {
	var n int64
	shift, ipl, iplSh := st.shift, st.ipl, st.iplSh
	mod1, match := st.mod-1, st.match
	for ri, r := range runs {
		if ri&sampledRunCheckMask == 0 {
			if err := st.poll(); err != nil {
				return err
			}
		}
		n += r.Len
		first := r.Start >> shift
		delta := int64((match - first) & mod1)
		if delta > (r.Len>>iplSh)+1 {
			// The run spans at most (Len>>iplSh)+2 lines, so it cannot reach
			// the sampled class: skip with one compare — the common case.
			continue
		}
		head := ipl - int64(r.Start/trace.InstrBytes)&(ipl-1)
		if head >= r.Len {
			if delta == 0 {
				st.touch(first, r.Len, true)
			}
			continue
		}
		nlines := int64(1) + (r.Len-head+ipl-1)>>iplSh
		for i := delta; i < nlines; i += int64(mod1 + 1) {
			st.touch(first+uint64(i), st.lineCnt(i, r.Len, head), true)
		}
	}
	st.total += n
	return nil
}

// span processes n sequential instructions starting at start, at line
// granularity; measured spans count, unmeasured (warm) spans only advance
// stack state.
func (st *sampledState) span(start uint64, n int64, measured bool) {
	first := start >> st.shift
	// The span's first line in the sampled congruence class: 0 without set
	// sampling (mod 1), where every line is.
	i := int64((st.match - first) & (st.mod - 1))
	headOff := int64(start/trace.InstrBytes) & (st.ipl - 1) // instruction offset within the first line
	head := st.ipl - headOff
	if head >= n {
		// The whole span fits in one line — the common case for short runs.
		if i == 0 {
			st.touch(first, n, measured)
		}
		return
	}
	nlines := int64(1) + (n-head+st.ipl-1)>>st.iplSh
	for ; i < nlines; i += int64(st.mod) {
		st.touch(first+uint64(i), st.lineCnt(i, n, head), measured)
	}
}

// lineCnt returns how many of the span's n instructions fall in its i-th
// line, where the 0th line holds the first head of them.
func (st *sampledState) lineCnt(i, n, head int64) int64 {
	if i == 0 {
		return head
	}
	c := n - head - (i-1)*st.ipl
	if c > st.ipl {
		c = st.ipl
	}
	return c
}

// touch settles cnt sequential accesses to line la for every grid cell: one
// stack operation (the line's first access) plus cnt-1 distance-1 hits,
// which hit in every cell. The first access moves la to the top of each
// group's stack and, when measured, counts the depth it was found at in the
// group's histogram — amax when absent — from which fold derives every
// cell's misses. Groups run coarsest first, so the first group with la on
// top proves it on top — a hit with no stack change — in every remaining
// group.
func (st *sampledState) touch(la uint64, cnt int64, measured bool) {
	key := la + 1
	if measured {
		if st.seen != nil && st.seen.add(key) {
			st.m.Distinct++
		}
		st.instr[(la>>st.rowShift)&st.kmask] += cnt
	}
	for _, g := range st.groups {
		row := (la & g.mask) >> st.rowShift
		s := g.stack[int(row)*g.amax:][:g.amax]
		if s[0] == key {
			break
		}
		// Move to front: shift each line down one until la's old slot, or
		// off the bottom when absent; d ends at la's old depth.
		prev := s[0]
		s[0] = key
		d := 1
		for ; d < len(s); d++ {
			prev, s[d] = s[d], prev
			if prev == key {
				break
			}
		}
		if measured {
			g.hist[int(row&st.kmask)*g.amax+d-1]++
		}
	}
}

// fold sets the matrix's counts from the histograms and tallies, which only
// grow: each cell's misses are the measured first accesses its group found
// at a depth of at least the cell's associativity, or not at all. A fold is
// a snapshot of the pass so far, so every reader of the counts folds first.
func (st *sampledState) fold() {
	st.m.Accesses = 0
	for _, n := range st.instr {
		st.m.Accesses += n
	}
	for _, g := range st.groups {
		for _, c := range g.cells {
			var n int64
			for k := 0; k < len(g.hist)/g.amax; k++ {
				n += g.misses(k, c.assoc)
			}
			st.m.Misses[c.out] = n
		}
	}
}

// misses returns the measured misses of g's assoc-way cells in cluster k.
func (g *group) misses(k, assoc int) int64 {
	var n int64
	for _, v := range g.hist[k*g.amax+assoc-1 : (k+1)*g.amax] {
		n += v
	}
	return n
}

// closeWindow flushes the measurement window just read into one cluster per
// cell.
func (st *sampledState) closeWindow() {
	prev := st.m.Accesses
	st.fold()
	if n := st.m.Accesses - prev; n > 0 {
		for i := range st.winClusters {
			st.winClusters[i] = append(st.winClusters[i], sampling.Cluster{
				Instructions: n,
				Misses:       st.m.Misses[i] - st.winPrev[i],
			})
		}
	}
	copy(st.winPrev, st.m.Misses)
}

// assemble builds the result matrix with per-cell estimates.
func (st *sampledState) assemble(total int64) *SampledMatrix {
	st.fold()
	sm := &SampledMatrix{
		Matrix:              *st.m,
		TotalInstructions:   total,
		SampledInstructions: st.m.Accesses,
		Estimates:           make([]sampling.Estimate, len(st.m.Cells)),
	}
	switch {
	case st.timeSample:
		// The sampled fraction of the population: instruction coverage
		// (which already folds in any set sampling — skipped lines are
		// never counted as measured).
		f := sm.Coverage()
		for i := range sm.Estimates {
			sm.Estimates[i] = sampling.EstimateFrom(st.winClusters[i], total, f)
		}
	case st.mod > 1:
		f := 1 / float64(st.mod)
		for _, g := range st.groups {
			clusters := make([]sampling.Cluster, len(g.hist)/g.amax)
			rowMask := uint64(len(clusters) - 1)
			for j, n := range st.instr {
				clusters[uint64(j)&rowMask].Instructions += n
			}
			for _, c := range g.cells {
				for k := range clusters {
					clusters[k].Misses = g.misses(k, c.assoc)
				}
				sm.Estimates[c.out] = sampling.EstimateFrom(clusters, total, f)
			}
		}
	default:
		// Exhaustive: the estimate is the exact value.
		for i := range sm.Estimates {
			sm.Estimates[i] = sampling.EstimateFrom(
				[]sampling.Cluster{{Instructions: sm.SampledInstructions, Misses: sm.Misses[i]}}, total, 1)
		}
	}
	return sm
}
