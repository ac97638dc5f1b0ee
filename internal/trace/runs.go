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

// Compactor is an incremental Compact: references arrive in batches of any
// size and runs accumulate internally, with sequential stretches spanning
// batch boundaries still merging into one run — exactly what CompactAppend
// over the concatenated stream would produce. It lets a
// streaming trace source be compacted in O(runs) memory without ever
// materializing the reference slice (synth.Store.RunsOnly is the intended
// consumer).
//
// Closed runs accumulate in fixed-size chunks that Finish copies, once, into
// one slice of exactly the final length. A single slice grown by append
// would at each growth hold both its old and its new backing array, and
// would keep its last growth's unused capacity for as long as the trace is
// memoized.
type Compactor struct {
	chunks [][]Run // filled chunks, in order
	filled int     // runs held in chunks
	runs   []Run   // the chunk being filled
	cur    Run
	next   uint64 // address extending cur; 0 also flags "no current run"
}

// compactChunk is the run capacity of one Compactor chunk (384 KiB).
const compactChunk = 1 << 14

// Add feeds references in order; non-instruction references are ignored,
// matching Compact. Feeding a batch per call keeps the open run in
// registers across it.
func (c *Compactor) Add(refs ...Ref) {
	start, n, dom, next := c.cur.Start, c.cur.Len, c.cur.Domain, c.next
	for _, r := range refs {
		// next is 0 exactly when there is no open run (or it ends at the
		// top of the address space), so a match extends an open run.
		if r.Addr == next && r.Domain == dom && next != 0 && r.Kind == IFetch {
			n++
			next += InstrBytes
			continue
		}
		if r.Kind != IFetch {
			continue
		}
		if n > 0 {
			c.push(Run{Start: start, Len: n, Domain: dom})
		}
		start, n, dom = r.Addr, 1, r.Domain
		next = r.Addr + InstrBytes // wraps to < InstrBytes at the address-space top, breaking the run
	}
	c.cur, c.next = Run{Start: start, Len: n, Domain: dom}, next
}

// push appends a closed run, starting a fresh chunk when the current one is
// full (or there is none yet).
func (c *Compactor) push(r Run) {
	if len(c.runs) == cap(c.runs) {
		if len(c.runs) > 0 {
			c.chunks = append(c.chunks, c.runs)
			c.filled += len(c.runs)
		}
		c.runs = make([]Run, 0, compactChunk)
	}
	c.runs = append(c.runs, r)
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
	if c.Len() > 0 {
		panic("trace: Compactor.Resume on a non-empty Compactor")
	}
	if len(prefix) == 0 {
		return
	}
	last := prefix[len(prefix)-1]
	if head := prefix[:len(prefix)-1]; len(head) > 0 {
		c.chunks = append(c.chunks, head)
		c.filled = len(head)
	}
	c.cur = last
	c.next = last.End() // 0 at the address-space top, matching Add's no-extend flag
}

// Len returns the number of runs the compactor currently retains, including
// the still-open one — an upper bound that grows by at most one per
// reference fed, so incremental memory-budget checks can poll it cheaply.
func (c *Compactor) Len() int {
	n := c.filled + len(c.runs)
	if c.cur.Len > 0 {
		n++
	}
	return n
}

// Finish closes the open run and returns the compacted trace, copied out of
// the chunks into a slice whose capacity is its length. The Compactor must
// not be reused after Finish.
func (c *Compactor) Finish() []Run {
	if c.cur.Len > 0 {
		c.push(c.cur)
		c.cur = Run{}
		c.next = 0
	}
	out := make([]Run, 0, c.filled+len(c.runs))
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	out = append(out, c.runs...)
	c.chunks, c.runs, c.filled = nil, nil, 0
	return out
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
	dst := make([]Ref, n)
	i := 0
	for _, r := range runs {
		seg := dst[i : i+int(r.Len)]
		addr := r.Start
		for k := range seg {
			seg[k] = Ref{Addr: addr, Kind: IFetch, Domain: r.Domain}
			addr += InstrBytes
		}
		i += len(seg)
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
