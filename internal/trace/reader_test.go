package trace

import (
	"errors"
	"testing"
)

// sliceSeeker is a Seeker over an in-memory reference slice.
type sliceSeeker struct {
	SliceSource
	refs []Ref
}

func newSliceSeeker(refs []Ref) *sliceSeeker {
	return &sliceSeeker{SliceSource: SliceSource{refs: refs}, refs: refs}
}

func (s *sliceSeeker) SeekTo(i int64) error { s.pos = int(min(i, int64(len(s.refs)))); return nil }
func (s *sliceSeeker) Pos() int64           { return int64(s.pos) }
func (s *sliceSeeker) Total() int64         { return int64(len(s.refs)) }

// Every RunReader must yield exactly the instructions of [pos, pos+n) for
// arbitrary positions — across block boundaries, after backward reads, and
// clipped at the trace end — with the first run starting at pos.
func TestRunReaders(t *testing.T) {
	runs := colTestRuns(3000, 23)
	want := Expand(runs)
	total := int64(len(want))
	f, err := NewColumnarBytes(encodeColumnarBytes(t, runs, 512))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() < 8 {
		t.Fatalf("only %d blocks", f.NumBlocks())
	}
	readers := map[string]RunReader{
		"memory":    NewRunReader(runs),
		"blocks-1":  NewBlockReader(NewRunsBlocks(runs, 1)),
		"blocks-7":  NewBlockReader(NewRunsBlocks(runs, 7)),
		"columnar":  NewBlockReader(f),
		"seeker":    NewSeekReader(newSliceSeeker(want)),
		"empty-mem": NewRunReader(nil),
	}
	windows := []struct{ pos, n int64 }{
		{0, 1}, {0, 100}, {500, 3000}, {total - 10, 100}, {total, 50},
		{7, 1}, {2, 9000}, // backward after a long read
		{total / 2, 1}, {0, total}, {3, 1 << 62}, {total / 3, 0},
	}
	for name, rd := range readers {
		t.Run(name, func(t *testing.T) {
			exp := want
			if name == "empty-mem" {
				exp = nil
			}
			if rd.Total() != int64(len(exp)) {
				t.Fatalf("Total %d, want %d", rd.Total(), len(exp))
			}
			for _, w := range windows {
				var got []Ref
				err := rd.ReadRuns(w.pos, w.n, func(rs []Run) error {
					for _, r := range rs {
						if r.Len <= 0 {
							t.Fatalf("read(%d,%d) yielded empty run %+v", w.pos, w.n, r)
						}
						got = r.AppendRefs(got)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("read(%d,%d): %v", w.pos, w.n, err)
				}
				lo, hi := min(w.pos, int64(len(exp))), min(w.pos+w.n, int64(len(exp)))
				if w.pos+w.n < w.pos {
					hi = int64(len(exp))
				}
				if len(got) != int(hi-lo) {
					t.Fatalf("read(%d,%d) yielded %d instructions, want %d", w.pos, w.n, len(got), hi-lo)
				}
				for i, r := range exp[lo:hi] {
					if got[i] != r {
						t.Fatalf("read(%d,%d) instruction %d = %+v, want %+v", w.pos, w.n, i, got[i], r)
					}
				}
			}
		})
	}
}

// fn's error stops a read and comes back unchanged; a block decode failure
// surfaces as the read's error.
func TestRunReaderErrors(t *testing.T) {
	runs := colTestRuns(500, 3)
	boom := errors.New("stop")
	for name, rd := range map[string]RunReader{
		"memory":  NewRunReader(runs),
		"blocks":  NewBlockReader(NewRunsBlocks(runs, 9)),
		"seeker":  NewSeekReader(newSliceSeeker(Expand(runs))),
		"columnr": NewBlockReader(mustColumnar(t, runs)),
	} {
		calls := 0
		err := rd.ReadRuns(0, rd.Total(), func([]Run) error { calls++; return boom })
		if err != boom || calls != 1 {
			t.Errorf("%s: err %v after %d calls, want the fn error after 1", name, err, calls)
		}
	}
	data := encodeColumnarBytes(t, runs, 256)
	f, err := NewColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	data[f.BlockMeta(1).Offset+colFrameSize] ^= 0x40
	err = NewBlockReader(f).ReadRuns(0, f.Refs(), func([]Run) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt block read: %v, want ErrCorrupt", err)
	}
	short := newSliceSeeker(Expand(runs)[:100])
	sr := NewSeekReader(&truncatedSeeker{sliceSeeker: short, total: 200})
	if err := sr.ReadRuns(0, 200, func([]Run) error { return nil }); err == nil {
		t.Fatal("a seeker that ends early read without error")
	}
}

// truncatedSeeker claims more instructions than it holds.
type truncatedSeeker struct {
	*sliceSeeker
	total int64
}

func (s *truncatedSeeker) Total() int64 { return s.total }

func mustColumnar(t *testing.T, runs []Run) *ColumnarFile {
	t.Helper()
	f, err := NewColumnarBytes(encodeColumnarBytes(t, runs, 512))
	if err != nil {
		t.Fatal(err)
	}
	return f
}
