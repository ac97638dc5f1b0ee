package trace

import "fmt"

// RunsBlocks adapts an in-memory run-compacted trace to BlockSource by
// slicing it into fixed run-count blocks. It performs no encoding — BlockRuns
// copies the slice into dst — so it is the reference implementation
// differential checks compare a ColumnarFile against.
type RunsBlocks struct {
	runs []Run
	per  int
	cum  []int64
}

// NewRunsBlocks slices runs into blocks of per runs each (the last may be
// short). per <= 0 defaults to one block holding everything.
func NewRunsBlocks(runs []Run, per int) *RunsBlocks {
	if per <= 0 {
		per = len(runs)
		if per == 0 {
			per = 1
		}
	}
	n := (len(runs) + per - 1) / per
	cum := make([]int64, n+1)
	var refs int64
	for i := 0; i < n; i++ {
		cum[i] = refs
		for _, r := range runs[i*per : min(len(runs), (i+1)*per)] {
			refs += r.Len
		}
	}
	cum[n] = refs
	return &RunsBlocks{runs: runs, per: per, cum: cum}
}

// NumBlocks implements BlockSource.
func (b *RunsBlocks) NumBlocks() int { return len(b.cum) - 1 }

// BlockMeta implements BlockSource.
func (b *RunsBlocks) BlockMeta(i int) BlockMeta {
	blk := b.block(i)
	last := blk[len(blk)-1]
	return BlockMeta{
		Refs:      b.cum[i+1] - b.cum[i],
		Runs:      len(blk),
		FirstAddr: blk[0].Start,
		LastAddr:  last.Start + uint64(last.Len-1)*InstrBytes,
	}
}

// BlockRuns implements BlockSource.
func (b *RunsBlocks) BlockRuns(i int, dst []Run) ([]Run, error) {
	if i < 0 || i >= b.NumBlocks() {
		return dst[:0], fmt.Errorf("trace: block %d out of range [0,%d)", i, b.NumBlocks())
	}
	return append(dst[:0], b.block(i)...), nil
}

func (b *RunsBlocks) block(i int) []Run {
	return b.runs[i*b.per : min(len(b.runs), (i+1)*b.per)]
}

// ColumnarStats summarizes a columnar file for inspection (ibstrace -file):
// sizes, per-instruction cost, and the address-delta width histogram that
// shows where the compression comes from.
type ColumnarStats struct {
	// Blocks, Runs, Refs are the file's block/run/instruction counts.
	Blocks int
	Runs   int64
	Refs   int64
	// FileBytes is the whole file; PayloadBytes just the block payloads.
	FileBytes    int64
	PayloadBytes int64
	// BytesPerRef is FileBytes/Refs.
	BytesPerRef float64
	// DeltaWidth[n] counts runs whose address-delta varint took n+1 bytes.
	DeltaWidth [10]int64
}

// Stats walks every block (CRC-checking as it goes) and summarizes the file.
func (f *ColumnarFile) Stats() (ColumnarStats, error) {
	st := ColumnarStats{
		Blocks:    len(f.metas),
		Runs:      f.runs,
		Refs:      f.refs,
		FileBytes: f.size,
	}
	var buf []Run
	for i, m := range f.metas {
		st.PayloadBytes += int64(m.PayloadLen)
		var err error
		if buf, err = f.BlockRuns(i, buf); err != nil {
			return st, err
		}
		// Re-derive each run's delta width from the decoded runs (the
		// canonical encoding makes this exact without re-parsing columns).
		var prevEnd uint64
		var vb [10]byte
		for _, r := range buf {
			delta := int64(r.Start/InstrBytes - prevEnd)
			n := len(appendZigzag(vb[:0], delta))
			st.DeltaWidth[n-1]++
			prevEnd = r.End() / InstrBytes
		}
	}
	if st.Refs > 0 {
		st.BytesPerRef = float64(st.FileBytes) / float64(st.Refs)
	}
	return st, nil
}
