package trace

import (
	"math"
	"sort"
)

// RunReader is a run-compacted instruction trace addressed by instruction
// position: the one source the sweep kernel and the replay driver read.
// Sampling windows, warm gaps and whole-trace passes are all the same call —
// "the runs covering instructions [pos, pos+n)" — so a consumer never learns
// whether the trace sits in memory, in a block-indexed file, or behind a
// checkpointed generator.
//
// ReadRuns calls fn, in order, with the runs covering instructions
// [pos, pos+n) clipped to the trace end: the first run starts at instruction
// pos and the runs hold exactly the clipped count. A run may arrive split
// across calls or cut at the range edges, which consumers cannot observe
// (every engine and the sweep kernel treat a run as the equivalent sequence
// of single fetches). fn must neither retain nor modify the slices; its
// first error stops the read and is returned unchanged. Reads are cheapest
// in increasing position order; ReadRuns(0, math.MaxInt64, fn) reads the
// whole trace, which lets a consumer that counts as it goes skip Total (an
// in-memory trace's length costs a pass over its runs). A RunReader is not
// safe for concurrent use.
type RunReader interface {
	// Total returns the trace length in instructions.
	Total() int64
	// ReadRuns calls fn with the runs covering instructions [pos, pos+n).
	ReadRuns(pos, n int64, fn func([]Run) error) error
}

// ExpandReader materializes the per-instruction fetch stream src holds:
// Expand over a RunReader, for the per-reference oracles that need a []Ref.
func ExpandReader(src RunReader) ([]Ref, error) {
	dst := make([]Ref, 0, src.Total())
	err := src.ReadRuns(0, math.MaxInt64, func(runs []Run) error {
		for _, r := range runs {
			dst = r.AppendRefs(dst)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// blockReader reads a trace held as a sequence of run blocks, one block at
// a time: a BlockSource through its block index, or an in-memory run list as
// a single block that is never copied.
type blockReader struct {
	bs  BlockSource // nil: buf is the whole in-memory trace
	cum []int64     // cum[i] = instructions before block i; len = blocks+1; nil until measured

	blk int // block held in buf; -1 before the first decode
	buf []Run
	run int   // cursor: a run index within buf...
	at  int64 // ...and the absolute position of that run's first instruction
	cut [1]Run
}

// NewRunReader reads an in-memory run-compacted trace without copying it:
// ReadRuns hands out subslices of runs, copying only a run cut at the range
// edges.
func NewRunReader(runs []Run) RunReader { return &blockReader{buf: runs} }

// NewBlockReader reads a BlockSource through its block index: a read
// decodes only the blocks it covers, locating the first by binary search
// over the cumulative instruction counts, so sampling windows skip the
// blocks between them undecoded. Memory is one decoded block.
func NewBlockReader(bs BlockSource) RunReader {
	n := bs.NumBlocks()
	cum := make([]int64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + bs.BlockMeta(i).Refs
	}
	return &blockReader{bs: bs, cum: cum, blk: -1}
}

// Total implements RunReader.
func (r *blockReader) Total() int64 {
	if r.cum == nil {
		var total int64
		for _, run := range r.buf {
			total += run.Len
		}
		r.cum = []int64{0, total}
	}
	return r.cum[len(r.cum)-1]
}

// ReadRuns implements RunReader.
func (r *blockReader) ReadRuns(pos, n int64, fn func([]Run) error) error {
	if r.cum == nil && pos == 0 && n == math.MaxInt64 {
		if len(r.buf) == 0 {
			return nil
		}
		return fn(r.buf) // the whole in-memory trace, unmeasured
	}
	end := pos + n
	if total := r.Total(); end > total || end < pos {
		end = total
	}
	for pos < end {
		if r.blk < 0 || pos < r.cum[r.blk] || pos >= r.cum[r.blk+1] {
			b, before := seekCum(r.cum, pos)
			var err error
			if r.buf, err = r.bs.BlockRuns(b, r.buf); err != nil {
				return err
			}
			r.blk, r.run, r.at = b, 0, before
		}
		if pos < r.at {
			r.run, r.at = 0, r.cum[r.blk] // a backward read: rescan the block
		}
		for r.at+r.buf[r.run].Len <= pos {
			r.at += r.buf[r.run].Len
			r.run++
		}
		stop := min(end, r.cum[r.blk+1])
		if err := r.emit(pos, stop, fn); err != nil {
			return err
		}
		pos = stop
	}
	return nil
}

// emit calls fn with the held block's runs covering [pos, stop), starting
// from the cursor run (which contains pos), and leaves the cursor on the run
// holding stop.
func (r *blockReader) emit(pos, stop int64, fn func([]Run) error) error {
	if h := r.buf[r.run]; pos > r.at || r.at+h.Len > stop {
		off := pos - r.at
		h.Start += uint64(off) * InstrBytes
		h.Len = min(h.Len-off, stop-pos)
		r.cut[0] = h
		if err := fn(r.cut[:]); err != nil {
			return err
		}
		if pos += h.Len; pos == stop {
			return nil
		}
		r.at += r.buf[r.run].Len
		r.run++
	}
	i := r.run
	if stop == r.cum[r.blk+1] {
		r.run, r.at = len(r.buf), stop // the rest of the block, whole
	} else {
		for r.at+r.buf[r.run].Len <= stop {
			r.at += r.buf[r.run].Len
			r.run++
		}
	}
	if r.run > i {
		if err := fn(r.buf[i:r.run]); err != nil {
			return err
		}
	}
	if r.at < stop {
		t := r.buf[r.run]
		t.Len = stop - r.at
		r.cut[0] = t
		return fn(r.cut[:])
	}
	return nil
}

// seekCum returns the block holding instruction pos, 0 <= pos <
// cum[len(cum)-1], and the instructions before it, by binary search over the
// cumulative counts cum (cum[i] = instructions before block i).
func seekCum(cum []int64, pos int64) (int, int64) {
	b := sort.Search(len(cum)-1, func(i int) bool { return cum[i+1] > pos })
	return b, cum[b]
}
