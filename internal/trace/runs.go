package trace

import "sort"

// Run-length compaction of instruction streams.
//
// Instruction fetch is overwhelmingly sequential: the PC advances one
// instruction at a time until a taken branch, trap, or domain switch breaks
// the run (Section 4's sequentiality analysis; internal/locality measures the
// same structure). A Run captures one such maximal sequential stretch, so a
// multi-million-reference instruction stream collapses into a few hundred
// thousand (Start, Len) pairs that fetch engines can consume with O(lines)
// work per run instead of O(instructions) — the basis of the fan-out replay
// driver in internal/replay.

// InstrBytes is the architectural instruction size: sequential execution
// advances the PC by this many bytes (the MIPS-style fixed 4-byte encoding
// every workload model generates).
const InstrBytes = 4

// Run is one maximal sequential stretch of instruction fetches: Len
// instructions starting at Start, advancing InstrBytes per instruction, all
// executed in Domain.
type Run struct {
	// Start is the address of the run's first instruction.
	Start uint64
	// Len is the number of instructions in the run (always >= 1).
	Len int64
	// Domain is the protection domain the whole run executed in.
	Domain Domain
}

// End returns the address one instruction past the run. For a run ending
// exactly at the top of the address space it is 0 (2^64 is unrepresentable);
// the run's own instructions never wrap.
func (r Run) End() uint64 { return r.Start + uint64(r.Len)*InstrBytes }

// Compact collapses the instruction fetches of refs into maximal sequential
// runs. Non-instruction references are ignored — the same Section 5
// methodology fetch.Run applies ("we only consider instruction references") —
// so Expand(Compact(refs)) reproduces exactly the fetch sequence an engine
// would see from refs. A run breaks on any non-sequential step, on a domain
// change, and at the top of the address space (so Start+Len*InstrBytes never
// wraps).
func Compact(refs []Ref) []Run {
	return CompactAppend(nil, refs)
}

// CompactAppend is Compact appending to dst, for callers reusing a buffer
// across traces; it allocates nothing when dst has capacity for the result.
func CompactAppend(dst []Run, refs []Ref) []Run {
	var cur Run
	var next uint64 // address extending cur; 0 also flags "no current run"
	for _, r := range refs {
		if r.Kind != IFetch {
			continue
		}
		if cur.Len > 0 && r.Addr == next && r.Domain == cur.Domain && next != 0 {
			cur.Len++
			next += InstrBytes
			continue
		}
		if cur.Len > 0 {
			dst = append(dst, cur)
		}
		cur = Run{Start: r.Addr, Len: 1, Domain: r.Domain}
		next = r.Addr + InstrBytes // wraps to < InstrBytes at the address-space top, breaking the run
	}
	if cur.Len > 0 {
		dst = append(dst, cur)
	}
	return dst
}

// Compactor is an incremental Compact: references arrive one at a time (or
// in arbitrary chunks) and runs accumulate internally, with sequential
// stretches spanning chunk boundaries still merging into one run — exactly
// what CompactAppend over the concatenated stream would produce. It lets a
// streaming trace source be compacted in O(runs) memory without ever
// materializing the reference slice (synth.Store.RunsOnly is the intended
// consumer).
type Compactor struct {
	runs []Run
	cur  Run
	next uint64 // address extending cur; 0 also flags "no current run"
}

// Add feeds one reference; non-instruction references are ignored, matching
// Compact.
func (c *Compactor) Add(r Ref) {
	if r.Kind != IFetch {
		return
	}
	if c.cur.Len > 0 && r.Addr == c.next && r.Domain == c.cur.Domain && c.next != 0 {
		c.cur.Len++
		c.next += InstrBytes
		return
	}
	if c.cur.Len > 0 {
		c.runs = append(c.runs, c.cur)
	}
	c.cur = Run{Start: r.Addr, Len: 1, Domain: r.Domain}
	c.next = r.Addr + InstrBytes // wraps to < InstrBytes at the address-space top, breaking the run
}

// Resume primes a fresh Compactor with an already-compacted prefix, taking
// ownership of the slice: subsequent Adds continue exactly where the prefix's
// stream left off, with the prefix's final run kept open so a sequential
// stretch spanning the boundary still merges — Finish over the whole thing
// equals Compact over the concatenated stream. This is how the synth store
// resumes run compaction from a memoized shorter trace instead of
// regenerating it. It panics if the Compactor has already consumed
// references.
func (c *Compactor) Resume(prefix []Run) {
	if c.cur.Len > 0 || len(c.runs) > 0 {
		panic("trace: Compactor.Resume on a non-empty Compactor")
	}
	if len(prefix) == 0 {
		return
	}
	last := prefix[len(prefix)-1]
	c.runs = prefix[:len(prefix)-1]
	c.cur = last
	c.next = last.End() // 0 at the address-space top, matching Add's no-extend flag
}

// Len returns the number of runs the compactor currently retains, including
// the still-open one — an upper bound that only grows by one per Add, so
// incremental memory-budget checks can poll it cheaply.
func (c *Compactor) Len() int {
	if c.cur.Len > 0 {
		return len(c.runs) + 1
	}
	return len(c.runs)
}

// Finish closes the open run and returns the compacted trace. The Compactor
// must not be reused after Finish.
func (c *Compactor) Finish() []Run {
	if c.cur.Len > 0 {
		c.runs = append(c.runs, c.cur)
		c.cur = Run{}
		c.next = 0
	}
	return c.runs
}

// AppendRefs expands the run back into its per-instruction fetches.
func (r Run) AppendRefs(dst []Ref) []Ref {
	addr := r.Start
	for i := int64(0); i < r.Len; i++ {
		dst = append(dst, Ref{Addr: addr, Kind: IFetch, Domain: r.Domain})
		addr += InstrBytes
	}
	return dst
}

// Expand materializes the per-instruction fetch stream of runs — the inverse
// of Compact over an instruction-only trace.
func Expand(runs []Run) []Ref {
	var n int64
	for _, r := range runs {
		n += r.Len
	}
	dst := make([]Ref, 0, n)
	for _, r := range runs {
		dst = r.AppendRefs(dst)
	}
	return dst
}

// RunStats summarizes a compacted trace's sequentiality — the numbers
// ibstrace prints so a trace's amenability to bulk replay is inspectable.
type RunStats struct {
	// Instructions is the total instruction count across all runs.
	Instructions int64
	// Runs is the number of maximal sequential runs.
	Runs int64
	// MeanLen and MedianLen are the run-length distribution's center.
	MeanLen   float64
	MedianLen float64
	// MaxLen is the longest run observed.
	MaxLen int64
}

// CompactionRatio returns Instructions/Runs — how many per-instruction
// dispatches each bulk FetchRun call replaces — or 0 for an empty trace.
func (s RunStats) CompactionRatio() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Runs)
}

// SummarizeRuns computes run-length statistics for a compacted trace.
func SummarizeRuns(runs []Run) RunStats {
	st := RunStats{Runs: int64(len(runs))}
	if len(runs) == 0 {
		return st
	}
	lens := make([]int64, len(runs))
	for i, r := range runs {
		lens[i] = r.Len
		st.Instructions += r.Len
		if r.Len > st.MaxLen {
			st.MaxLen = r.Len
		}
	}
	st.MeanLen = float64(st.Instructions) / float64(st.Runs)
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	if n := len(lens); n%2 == 1 {
		st.MedianLen = float64(lens[n/2])
	} else {
		st.MedianLen = float64(lens[n/2-1]+lens[n/2]) / 2
	}
	return st
}
