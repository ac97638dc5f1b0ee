package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// colTestRuns builds a deterministic run-compacted trace shaped like real
// instruction streams: mostly short forward hops with occasional long calls,
// across a couple of domains.
func colTestRuns(n int, seed int64) []Run {
	rng := rand.New(rand.NewSource(seed))
	runs := make([]Run, 0, n)
	addr := uint64(0x10000)
	for i := 0; i < n; i++ {
		length := int64(1 + rng.Intn(24))
		dom := Domain(rng.Intn(int(NumDomains)))
		runs = append(runs, Run{Start: addr, Len: length, Domain: dom})
		addr += uint64(length) * InstrBytes
		switch rng.Intn(10) {
		case 0: // far call
			addr += uint64(rng.Intn(1<<20) * InstrBytes)
		case 1: // backward branch
			back := uint64(rng.Intn(1<<12) * InstrBytes)
			if back < addr-0x1000 {
				addr -= back
			}
		default: // short forward hop
			addr += uint64(rng.Intn(64) * InstrBytes)
		}
	}
	return runs
}

// encodeColumnarBytes is a test helper: runs -> file image.
func encodeColumnarBytes(t *testing.T, runs []Run, blockBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeColumnarSize(&buf, runs, blockBytes); err != nil {
		t.Fatalf("EncodeColumnarSize: %v", err)
	}
	return buf.Bytes()
}

// collectBlocks drains every block through one reused buffer.
func collectBlocks(t *testing.T, bs BlockSource) []Run {
	t.Helper()
	var out, buf []Run
	var err error
	for i := 0; i < bs.NumBlocks(); i++ {
		if buf, err = bs.BlockRuns(i, buf); err != nil {
			t.Fatalf("BlockRuns(%d): %v", i, err)
		}
		out = append(out, buf...)
	}
	return out
}

func TestColumnarRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		runs       []Run
		blockBytes int
	}{
		{"empty", nil, DefaultBlockBytes},
		{"single", []Run{{Start: 0x4000, Len: 7, Domain: User}}, DefaultBlockBytes},
		{"one-block", colTestRuns(100, 1), DefaultBlockBytes},
		{"many-blocks", colTestRuns(5000, 2), 256},
		{"top-of-address-space", []Run{
			{Start: 0x1000, Len: 3},
			{Start: ^uint64(0) - 4*InstrBytes + 1 - 3, Len: 1}, // unaligned-top guard below covers alignment; keep aligned here
		}, DefaultBlockBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "top-of-address-space" {
				// Rebuild: last run ends exactly at 2^64.
				tc.runs = []Run{
					{Start: 0x1000, Len: 3},
					{Start: ^uint64(0) - 4*5 + 1, Len: 5}, // 0xFFFF...EC, 5 instrs, End wraps to 0
				}
				if tc.runs[1].End() != 0 {
					t.Fatalf("test bug: End() = %#x, want 0", tc.runs[1].End())
				}
			}
			data := encodeColumnarBytes(t, tc.runs, tc.blockBytes)
			f, err := NewColumnarBytes(data)
			if err != nil {
				t.Fatalf("NewColumnarBytes: %v", err)
			}
			got := collectBlocks(t, f)
			if len(got) != len(tc.runs) {
				t.Fatalf("decoded %d runs, want %d", len(got), len(tc.runs))
			}
			for i := range got {
				if got[i] != tc.runs[i] {
					t.Fatalf("run %d = %+v, want %+v", i, got[i], tc.runs[i])
				}
			}
			var wantRefs int64
			for _, r := range tc.runs {
				wantRefs += r.Len
			}
			if f.Refs() != wantRefs || f.Runs() != int64(len(tc.runs)) {
				t.Fatalf("Refs/Runs = %d/%d, want %d/%d", f.Refs(), f.Runs(), wantRefs, len(tc.runs))
			}
		})
	}
}

func TestColumnarFileRoundTripMmap(t *testing.T) {
	runs := colTestRuns(3000, 3)
	path := filepath.Join(t.TempDir(), "t.col")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeColumnarSize(w, runs, 1024); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := OpenColumnar(path)
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	defer f.Close()
	if f.NumBlocks() < 2 {
		t.Fatalf("want multiple blocks, got %d", f.NumBlocks())
	}
	got := collectBlocks(t, f)
	if len(got) != len(runs) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(runs))
	}
	for i := range got {
		if got[i] != runs[i] {
			t.Fatalf("run %d mismatch", i)
		}
	}

	// The explicit sequential (ReaderAt) mode must agree byte for byte.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	st, _ := rf.Stat()
	seq, err := NewColumnarReaderAt(rf, st.Size())
	if err != nil {
		t.Fatalf("NewColumnarReaderAt: %v", err)
	}
	if seq.Mapped() {
		t.Fatal("ReaderAt mode claims to be mapped")
	}
	gotSeq := collectBlocks(t, seq)
	if len(gotSeq) != len(runs) {
		t.Fatalf("sequential decoded %d runs, want %d", len(gotSeq), len(runs))
	}
	for i := range gotSeq {
		if gotSeq[i] != runs[i] {
			t.Fatalf("sequential run %d mismatch", i)
		}
	}
}

func TestColumnarWriterValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  Run
	}{
		{"bad-domain", Run{Start: 0x1000, Len: 1, Domain: NumDomains}},
		{"zero-len", Run{Start: 0x1000, Len: 0}},
		{"huge-len", Run{Start: 0x1000, Len: maxRunLen + 1}},
		{"unaligned", Run{Start: 0x1001, Len: 1}},
		{"wrapping", Run{Start: ^uint64(0) - 3, Len: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			cw, err := NewColumnarWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.PutRun(tc.run); err == nil {
				t.Fatal("PutRun accepted an invalid run")
			}
			// Sticky: a valid run after the failure still errors.
			if err := cw.PutRun(Run{Start: 0x2000, Len: 1}); err == nil {
				t.Fatal("writer error not sticky")
			}
		})
	}
	if _, err := NewColumnarWriterSize(&bytes.Buffer{}, 8); err == nil {
		t.Fatal("accepted an absurdly small block size")
	}
}

func TestColumnarWriterClosed(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewColumnarWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.PutRun(Run{Start: 0x1000, Len: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	if err := cw.PutRun(Run{Start: 0x2000, Len: 1}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("PutRun after Close = %v, want ErrWriterClosed", err)
	}
}

func TestColumnarHeaderErrors(t *testing.T) {
	runs := colTestRuns(50, 4)
	good := encodeColumnarBytes(t, runs, DefaultBlockBytes)

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := NewColumnarBytes(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("v1-version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(bad[8:10], 1)
		if _, err := NewColumnarBytes(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("truncated-trailer", func(t *testing.T) {
		if _, err := NewColumnarBytes(good[:len(good)-5]); err == nil {
			t.Fatal("accepted a truncated file")
		}
	})
	t.Run("tiny", func(t *testing.T) {
		if _, err := NewColumnarBytes(good[:10]); !errors.Is(err, ErrTruncated) {
			t.Fatal("accepted a tiny file")
		}
	})
	t.Run("v1-file-rejected", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := Encode(&buf, Expand(runs)); err != nil {
			t.Fatal(err)
		}
		if _, err := NewColumnarBytes(buf.Bytes()); !errors.Is(err, ErrBadVersion) {
			t.Fatal("columnar reader accepted a v1 file")
		}
	})
}

// corruptPayloadByte flips one bit inside block i's payload, returning the
// damaged image.
func corruptPayloadByte(t *testing.T, data []byte, f *ColumnarFile, block int, off int) []byte {
	t.Helper()
	m := f.BlockMeta(block)
	bad := append([]byte(nil), data...)
	bad[m.Offset+colFrameSize+int64(off)] ^= 0x10
	return bad
}

func TestColumnarBlockCorruption(t *testing.T) {
	runs := colTestRuns(4000, 5)
	data := encodeColumnarBytes(t, runs, 512)
	f, err := NewColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() < 5 {
		t.Fatalf("want >= 5 blocks, got %d", f.NumBlocks())
	}
	mid := f.NumBlocks() / 2
	bad := corruptPayloadByte(t, data, f, mid, 20)
	bf, err := NewColumnarBytes(bad)
	if err != nil {
		t.Fatalf("open with damaged block (index intact): %v", err)
	}
	var buf []Run
	for i := 0; i < bf.NumBlocks(); i++ {
		buf, err = bf.BlockRuns(i, buf)
		if i == mid {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged block decode err = %v, want ErrCorrupt", err)
			}
		} else if err != nil {
			t.Fatalf("undamaged block %d: %v", i, err)
		}
	}
}

func TestColumnarSalvageDropsExactlyDamagedBlock(t *testing.T) {
	runs := colTestRuns(4000, 6)
	data := encodeColumnarBytes(t, runs, 512)
	f, err := NewColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	mid := f.NumBlocks() / 2
	m := f.BlockMeta(mid)
	bad := corruptPayloadByte(t, data, f, mid, 7)

	sf, dmg, err := SalvageColumnarBytes(bad)
	if err != nil {
		t.Fatalf("SalvageColumnarBytes: %v", err)
	}
	if !dmg.Damaged() || dmg.DroppedBlocks != 1 || dmg.DroppedRefs != m.Refs || dmg.IndexRebuilt {
		t.Fatalf("damage = %+v, want exactly block %d (%d refs) dropped, index kept", dmg, mid, m.Refs)
	}
	if !errors.Is(dmg.Err, ErrCorrupt) {
		t.Fatalf("damage err = %v, want ErrCorrupt", dmg.Err)
	}
	if sf.NumBlocks() != f.NumBlocks()-1 {
		t.Fatalf("salvaged %d blocks, want %d", sf.NumBlocks(), f.NumBlocks()-1)
	}
	if sf.Refs() != f.Refs()-m.Refs {
		t.Fatalf("salvaged refs %d, want %d", sf.Refs(), f.Refs()-m.Refs)
	}

	// The surviving blocks are exactly the original trace minus that block.
	var want []Run
	var buf []Run
	for i := 0; i < f.NumBlocks(); i++ {
		if i == mid {
			continue
		}
		buf, err = f.BlockRuns(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
	}
	got := collectBlocks(t, sf)
	if len(got) != len(want) {
		t.Fatalf("salvaged %d runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("salvaged run %d mismatch", i)
		}
	}
}

func TestColumnarSalvageTruncated(t *testing.T) {
	runs := colTestRuns(4000, 7)
	data := encodeColumnarBytes(t, runs, 512)
	f, err := NewColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the blocks: trailer and index gone entirely.
	cutBlock := f.NumBlocks() * 2 / 3
	cut := f.BlockMeta(cutBlock).Offset + 11 // mid-frame
	sf, dmg, err := SalvageColumnarBytes(data[:cut])
	if err != nil {
		t.Fatalf("SalvageColumnarBytes: %v", err)
	}
	if !dmg.IndexRebuilt {
		t.Fatal("expected a rebuilt index after truncation")
	}
	if !errors.Is(dmg.Err, ErrTruncated) && !errors.Is(dmg.Err, ErrCorrupt) {
		t.Fatalf("damage err = %v, want typed", dmg.Err)
	}
	if sf.NumBlocks() != cutBlock {
		t.Fatalf("salvaged %d blocks, want the %d-block prefix", sf.NumBlocks(), cutBlock)
	}
	got := collectBlocks(t, sf)
	var want []Run
	var buf []Run
	for i := 0; i < cutBlock; i++ {
		buf, err = f.BlockRuns(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
	}
	if len(got) != len(want) {
		t.Fatalf("salvaged %d runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("salvaged run %d mismatch", i)
		}
	}
}

func TestColumnarSalvageIntact(t *testing.T) {
	runs := colTestRuns(1000, 8)
	data := encodeColumnarBytes(t, runs, 1024)
	sf, dmg, err := SalvageColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if dmg.Damaged() {
		t.Fatalf("intact file reported damage: %+v", dmg)
	}
	if got := collectBlocks(t, sf); len(got) != len(runs) {
		t.Fatalf("salvaged %d runs, want %d", len(got), len(runs))
	}
}

func TestColumnarSeekRef(t *testing.T) {
	runs := colTestRuns(3000, 9)
	f, err := NewColumnarBytes(encodeColumnarBytes(t, runs, 512))
	if err != nil {
		t.Fatal(err)
	}
	cum := NewBlockReader(f).(*blockReader).cum
	total := cum[len(cum)-1]
	var want int64
	for _, r := range runs {
		want += r.Len
	}
	if total != want || f.NumBlocks() < 8 {
		t.Fatalf("%d blocks holding %d instructions, want >= 8 holding %d", f.NumBlocks(), total, want)
	}
	// Every position must land in the block whose cumulative range holds it,
	// the first and last instruction of each block included.
	var pos []int64
	for p := int64(0); p < total; p += total/997 + 1 {
		pos = append(pos, p)
	}
	for i := 0; i < f.NumBlocks(); i++ {
		pos = append(pos, cum[i], cum[i+1]-1)
	}
	for _, p := range pos {
		blk, before := seekCum(cum, p)
		m := f.BlockMeta(blk)
		if before != cum[blk] || p < before || p >= before+m.Refs {
			t.Fatalf("seekCum(%d) -> block %d covering [%d,%d)", p, blk, before, before+m.Refs)
		}
	}
}

func TestRunsBlocksMatchesColumnar(t *testing.T) {
	runs := colTestRuns(2500, 11)
	f, err := NewColumnarBytes(encodeColumnarBytes(t, runs, 768))
	if err != nil {
		t.Fatal(err)
	}
	for name, bs := range map[string]BlockSource{"columnar": f, "runs-blocks": NewRunsBlocks(runs, 100)} {
		if got := collectBlocks(t, bs); !slices.Equal(got, runs) {
			t.Fatalf("%s yielded %d runs, want the %d encoded", name, len(got), len(runs))
		}
	}
}

func TestColumnarStats(t *testing.T) {
	runs := colTestRuns(2000, 12)
	data := encodeColumnarBytes(t, runs, 1024)
	f, err := NewColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != int64(len(runs)) || st.Refs != f.Refs() || st.Blocks != f.NumBlocks() {
		t.Fatalf("stats %+v disagree with file", st)
	}
	var widths int64
	for _, c := range st.DeltaWidth {
		widths += c
	}
	if widths != st.Runs {
		t.Fatalf("delta-width histogram counts %d runs, want %d", widths, st.Runs)
	}
	if st.BytesPerRef <= 0 || st.BytesPerRef > 8 {
		t.Fatalf("bytes/ref %.3f implausible", st.BytesPerRef)
	}
}

// TestColumnarBlockRunsAllocFree pins the zero-copy claim: decoding blocks
// through a warm reused buffer in mapped (in-memory) mode allocates nothing.
func TestColumnarBlockRunsAllocFree(t *testing.T) {
	runs := colTestRuns(3000, 13)
	data := encodeColumnarBytes(t, runs, 4096)
	f, err := NewColumnarBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Run, 0, 4096)
	// Warm once (first decode may grow buf).
	for i := 0; i < f.NumBlocks(); i++ {
		if buf, err = f.BlockRuns(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < f.NumBlocks(); i++ {
			var e error
			if buf, e = f.BlockRuns(i, buf); e != nil {
				t.Fatal(e)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("BlockRuns allocated %.1f times per full pass, want 0", allocs)
	}
}

func BenchmarkColumnarDecode(b *testing.B) {
	runs := colTestRuns(100000, 14)
	var buf bytes.Buffer
	if _, err := EncodeColumnarSize(&buf, runs, DefaultBlockBytes); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	f, err := NewColumnarBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	var refs int64
	for _, r := range runs {
		refs += r.Len
	}
	b.SetBytes(int64(len(data)))
	b.ReportMetric(float64(refs), "refs/op")
	dst := make([]Run, 0, 1<<17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < f.NumBlocks(); blk++ {
			var e error
			if dst, e = f.BlockRuns(blk, dst); e != nil {
				b.Fatal(e)
			}
		}
	}
}

func BenchmarkColumnarEncode(b *testing.B) {
	runs := colTestRuns(100000, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := EncodeColumnarSize(&buf, runs, DefaultBlockBytes); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// Size counts the block the writer still holds open, which has not reached
// the underlying writer, and Close writes exactly that much before the
// index and trailer.
func TestColumnarWriterSizeCountsOpenBlock(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewColumnarWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := w.PutRun(Run{Start: 0x1000 + 64*i, Len: 3, Domain: User}); err != nil {
			t.Fatal(err)
		}
	}
	size := w.Size()
	if buf.Len() != colHeaderSize || size <= int64(buf.Len()) {
		t.Fatalf("writer received %d bytes, Size %d: want the header only, and Size beyond it", buf.Len(), size)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := size + colIndexEntrySize + colTrailerSize; int64(buf.Len()) != want {
		t.Fatalf("closed file %d bytes, want Size %d plus one index entry and the trailer (%d)", buf.Len(), size, want)
	}
}
