package sweep

import (
	"context"
	"fmt"
	"math"

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
	m          *Matrix // Accesses = measured instructions, Misses = measured misses
	groups     []*group
	seen       *lineSet
	shift      uint
	ipl        int64 // instructions per line (power of two)
	iplSh      uint  // log2(ipl): div/mod by ipl as shifts in the per-run path

	// Set sampling (mod > 1): lines ≡ match (mod mod). Only sets congruent
	// to match are ever touched, so stacks are allocated compactly — one row
	// per SAMPLED set — and rowShift (= log2(mod)) maps a set index to its
	// row. 0 without set sampling. The ~mod× smaller footprint keeps the
	// stacks cache-resident, which is where the sampled pass wins its time.
	mod      uint64
	match    uint64
	rowShift uint

	// Per-set-group clustering (set sampling without time sampling):
	// cluster index k = (set index) >> kshift, i.e. one cluster per sampled
	// congruence class of sets. Instructions are tallied per group (the
	// same line lands in different clusters under different set counts),
	// misses per cell.
	setCluster bool
	kshift     uint
	kInstr     [][]int64 // [group][k]
	kMiss      [][]int64 // [cell][k]

	// Per-window clustering (time sampling).
	winClusters [][]sampling.Cluster // [cell][window]
	winPrev     []int64              // per-cell miss snapshot at window open
	winInstr    int64
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

// RunSeek executes a skip-mode time-sampled pass over a seekable source
// (synth.SeekSource over a checkpointed generator), generating only the
// measured windows: O(sampled refs + windows · checkpoint interval) instead
// of O(n). It requires Window < Period and Warm == false — warm mode and
// set-only sampling must walk every instruction, so seeking could skip
// nothing. Set sampling composed with skip-mode time sampling is fine.
func (p SampledPass) RunSeek(src trace.Seeker) (*SampledMatrix, error) {
	if p.Period <= p.Window || p.Warm {
		return nil, fmt.Errorf("sweep: RunSeek needs skip-mode time sampling (window < period, not warm)")
	}
	return p.Sweep(trace.NewSeekReader(src))
}

// walk reads the pass's schedule from src and returns the trace length.
// Windows are [w·Period, w·Period+Window), each closed into one cluster per
// cell as soon as it has been read.
func (st *sampledState) walk(src trace.RunReader) (int64, error) {
	if !st.timeSample {
		if err := src.ReadRuns(0, math.MaxInt64, st.measure); err != nil {
			return 0, err
		}
		return st.total, nil
	}
	total := src.Total()
	p := st.p
	measure, warm := st.measure, st.warm
	for start := int64(0); start < total; start += p.Period {
		if err := src.ReadRuns(start, p.Window, measure); err != nil {
			return 0, err
		}
		st.closeWindow()
		if p.Warm {
			if err := src.ReadRuns(start+p.Window, p.Period-p.Window, warm); err != nil {
				return 0, err
			}
		}
		if start > total-p.Period {
			break // the next window start would overflow int64
		}
	}
	return total, nil
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

// prepare validates the pass and builds its state.
func (p SampledPass) prepare() (*sampledState, error) {
	m, groups, seen, shift, err := prepareGrid(p.LineSize, p.Cells, p.CountDistinct)
	if err != nil {
		return nil, err
	}
	if p.SetMod > 1 {
		if p.SetMod&(p.SetMod-1) != 0 {
			return nil, fmt.Errorf("sweep: set-sampling modulus %d must be a power of two", p.SetMod)
		}
		if p.SetMatch < 0 || p.SetMatch >= p.SetMod {
			return nil, fmt.Errorf("sweep: set-sampling match %d outside [0,%d)", p.SetMatch, p.SetMod)
		}
		for i, c := range p.Cells {
			if c.Sets < p.SetMod {
				return nil, fmt.Errorf("sweep: cell %d has %d sets < set-sampling modulus %d (sampled lines would not cover whole sets)", i, c.Sets, p.SetMod)
			}
		}
	} else if p.SetMatch != 0 {
		return nil, fmt.Errorf("sweep: set-sampling match %d without a modulus", p.SetMatch)
	}
	timeSample := p.Period > 0 || p.Window > 0
	if timeSample {
		if p.Window <= 0 {
			return nil, fmt.Errorf("sweep: sampling window %d must be positive", p.Window)
		}
		if p.Period < p.Window {
			return nil, fmt.Errorf("sweep: sampling period %d < window %d", p.Period, p.Window)
		}
		// Window == Period measures everything: no windows to cluster by.
		timeSample = p.Window < p.Period
	}

	st := &sampledState{
		p:          p,
		timeSample: timeSample,
		m:          m,
		groups:     groups,
		seen:       seen,
		shift:      shift,
		ipl:        int64(p.LineSize / trace.InstrBytes),
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
	for _, g := range groups {
		// One row per set this pass can actually touch: all of them, or the
		// sampled congruence class (rowShift compaction).
		g.stack = make([]uint64, int((g.mask+1)>>st.rowShift)*g.amax)
	}
	switch {
	case timeSample:
		st.winClusters = make([][]sampling.Cluster, len(p.Cells))
		st.winPrev = make([]int64, len(p.Cells))
	case st.mod > 1:
		st.setCluster = true
		st.kshift = st.rowShift
		st.kInstr = make([][]int64, len(groups))
		for gi, g := range groups {
			st.kInstr[gi] = make([]int64, (g.mask+1)>>st.kshift)
		}
		st.kMiss = make([][]int64, len(p.Cells))
		for _, g := range groups {
			nk := (g.mask + 1) >> st.kshift
			for _, c := range g.cells {
				st.kMiss[c.out] = make([]int64, nk)
			}
		}
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
	headOff := int64(start/trace.InstrBytes) & (st.ipl - 1) // instruction offset within the first line
	head := st.ipl - headOff
	if head >= n {
		// The whole span fits in one line — the common case for short runs.
		if st.mod > 1 && first&(st.mod-1) != st.match {
			return
		}
		st.touch(first, n, measured)
		return
	}
	nlines := int64(1) + (n-head+st.ipl-1)>>st.iplSh
	if st.mod > 1 {
		// Jump straight to the sampled congruence class.
		for i := int64((st.match - first) & (st.mod - 1)); i < nlines; i += int64(st.mod) {
			st.touch(first+uint64(i), st.lineCnt(i, n, head), measured)
		}
		return
	}
	for i := int64(0); i < nlines; i++ {
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
// stack operation (the line's first access) plus cnt-1 distance-1 hits.
// Groups run coarsest first, so the first group with la on top proves it on
// top — a hit with no stack change — in every remaining group.
func (st *sampledState) touch(la uint64, cnt int64, measured bool) {
	key := la + 1
	if measured && st.seen != nil && st.seen.add(key) {
		st.m.Distinct++
	}
	for gi, g := range st.groups {
		base := int((la&g.mask)>>st.rowShift) * g.amax
		s := g.stack[base : base+g.amax]
		var k uint64
		if st.setCluster {
			k = (la & g.mask) >> st.kshift
			if measured {
				st.kInstr[gi][k] += cnt
			}
		}
		if s[0] == key {
			if st.setCluster && measured {
				// Set-cluster tallies still credit every group.
				for gj, h := range st.groups[gi+1:] {
					st.kInstr[gi+1+gj][(la&h.mask)>>st.kshift] += cnt
				}
			}
			break
		}
		pos := -1
		for i := 1; i < g.amax; i++ {
			if s[i] == key {
				pos = i
				break
			}
		}
		if pos < 0 {
			if measured {
				for _, c := range g.cells {
					st.m.Misses[c.out]++
					if st.setCluster {
						st.kMiss[c.out][k]++
					}
				}
			}
			copy(s[1:], s[:g.amax-1])
		} else {
			if measured {
				for _, c := range g.cells {
					if c.assoc <= pos {
						st.m.Misses[c.out]++
						if st.setCluster {
							st.kMiss[c.out][k]++
						}
					}
				}
			}
			copy(s[1:pos+1], s[:pos])
		}
		s[0] = key
	}
	if measured {
		st.m.Accesses += cnt
		st.winInstr += cnt
	}
}

// closeWindow flushes the measurement window just read into one cluster per
// cell.
func (st *sampledState) closeWindow() {
	if st.winInstr > 0 {
		for i := range st.winClusters {
			st.winClusters[i] = append(st.winClusters[i], sampling.Cluster{
				Instructions: st.winInstr,
				Misses:       st.m.Misses[i] - st.winPrev[i],
			})
		}
	}
	copy(st.winPrev, st.m.Misses)
	st.winInstr = 0
}

// assemble builds the result matrix with per-cell estimates.
func (st *sampledState) assemble(total int64) *SampledMatrix {
	sm := &SampledMatrix{
		Matrix:              *st.m,
		TotalInstructions:   total,
		SampledInstructions: st.m.Accesses,
		Estimates:           make([]sampling.Estimate, len(st.m.Cells)),
	}
	cellGroup := make([]int, len(sm.Cells))
	for gi, g := range st.groups {
		for _, c := range g.cells {
			cellGroup[c.out] = gi
		}
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
	case st.setCluster:
		f := 1 / float64(st.mod)
		for i := range sm.Estimates {
			gi := cellGroup[i]
			clusters := make([]sampling.Cluster, len(st.kMiss[i]))
			for k := range clusters {
				clusters[k] = sampling.Cluster{Instructions: st.kInstr[gi][k], Misses: st.kMiss[i][k]}
			}
			sm.Estimates[i] = sampling.EstimateFrom(clusters, total, f)
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
