package trace

import "slices"

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
	var next uint64 // address extending cur
	for _, r := range refs {
		if r.Kind != IFetch {
			continue
		}
		if cur.Len > 0 && r.Addr == next && r.Domain == cur.Domain && next >= InstrBytes {
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

// EachRun decodes the rest of r's stream and hands fn the runs Compact would
// return for it, each as soon as the next instruction fetch breaks it, so
// only the open run is held; data references are skipped. A stream that
// ends in an error still hands over its open run first, so fn sees exactly
// the runs of the references DecodeSalvage returns. It returns fn's first
// error, else the stream's (Err).
func (r *Reader) EachRun(fn func(Run) error) error {
	var cur Run
	for ref, ok := r.Next(); ok; ref, ok = r.Next() {
		if ref.Kind != IFetch {
			continue
		}
		if next := cur.End(); cur.Len > 0 && ref.Addr == next && ref.Domain == cur.Domain && next >= InstrBytes {
			cur.Len++
			continue
		}
		if cur.Len > 0 {
			if err := fn(cur); err != nil {
				return err
			}
		}
		cur = Run{Start: ref.Addr, Len: 1, Domain: ref.Domain}
	}
	if cur.Len > 0 {
		if err := fn(cur); err != nil {
			return err
		}
	}
	return r.Err()
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

// CompactionRatio returns Instructions/Runs — how many single fetches each
// run stands for in a bulk replay — or 0 for an empty trace.
func (s RunStats) CompactionRatio() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Runs)
}

// SummarizeRuns computes run-length statistics for a compacted trace.
func SummarizeRuns(runs []Run) RunStats {
	h := RunLengths{}
	for _, r := range runs {
		h.Add(r)
	}
	return h.Stats()
}

// RunLengths counts runs by length: SummarizeRuns gathered one run at a
// time, for a trace read as a stream. It holds one count per distinct
// length, not the runs.
type RunLengths map[int64]int64

// Add counts r.
func (h RunLengths) Add(r Run) { h[r.Len]++ }

// Stats returns the run-length statistics of the runs counted so far.
func (h RunLengths) Stats() RunStats {
	var st RunStats
	lens := make([]int64, 0, len(h))
	for l, c := range h {
		lens = append(lens, l)
		st.Runs += c
		st.Instructions += l * c
		st.MaxLen = max(st.MaxLen, l)
	}
	if st.Runs == 0 {
		return st
	}
	st.MeanLen = float64(st.Instructions) / float64(st.Runs)
	slices.Sort(lens)
	// nth returns the length of the i-th shortest run, counting from 0.
	nth := func(i int64) int64 {
		for _, l := range lens {
			if i < h[l] {
				return l
			}
			i -= h[l]
		}
		panic("trace: run index past the counted runs")
	}
	if st.Runs%2 == 1 {
		st.MedianLen = float64(nth(st.Runs / 2))
	} else {
		st.MedianLen = float64(nth(st.Runs/2-1)+nth(st.Runs/2)) / 2
	}
	return st
}
