package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// oracle simulates every cell of p on its own cache.Cache over the expanded
// references under p's schedule: a reference in the sampled line class is
// fed when its position lies inside a measurement window (or Warm feeds the
// gaps), and counted only inside a window. It returns the per-cell measured
// misses, the measured instruction count and the distinct measured lines.
func oracle(t *testing.T, p SampledPass, refs []trace.Ref) (misses []int64, measured, distinct int64) {
	t.Helper()
	inWindow := func(i int) bool { return p.Period == 0 || int64(i)%p.Period < p.Window }
	inClass := func(addr uint64) bool {
		return p.SetMod <= 1 || int(addr/uint64(p.LineSize))&(p.SetMod-1) == p.SetMatch
	}
	for _, c := range p.Cells {
		cc, err := cache.New(cache.Config{Size: c.Size(p.LineSize), LineSize: p.LineSize, Assoc: c.Assoc})
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for i, r := range refs {
			if w := inWindow(i); inClass(r.Addr) && (w || p.Warm) {
				if !cc.Access(r.Addr) && w {
					n++
				}
			}
		}
		misses = append(misses, n)
	}
	lines := map[uint64]bool{}
	for i, r := range refs {
		if inWindow(i) && inClass(r.Addr) {
			measured++
			lines[r.Addr/uint64(p.LineSize)] = true
		}
	}
	return misses, measured, int64(len(lines))
}

// Every trace source under every schedule must reproduce the per-cell
// cache.Cache oracle over the expanded references — misses, measured
// instructions, distinct lines — and every source must produce the same
// matrix, estimates included, as the in-memory runs. The one kernel and the
// one driver are what all of them run through.
func TestSourcesMatchOracle(t *testing.T) {
	const name, seed, n = "gs", 11, 120_000
	prof := mustProfile(t, name)
	refs, err := synth.InstrTrace(prof, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	runs := trace.Compact(refs)
	var enc bytes.Buffer
	if _, err := trace.EncodeColumnarSize(&enc, runs, 512); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gs.ibstrace")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := trace.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	readAt, err := trace.NewColumnarReaderAt(fh, int64(enc.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if mapped.NumBlocks() < 8 || readAt.Mapped() {
		t.Fatalf("fixture: %d blocks, ReaderAt mapped=%v", mapped.NumBlocks(), readAt.Mapped())
	}
	seeker := func() trace.Seeker {
		src, err := synth.NewSeekSource(prof, seed, n, synth.NewCheckpointIndex(4096))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	sources := []struct {
		name string
		open func() trace.RunReader
	}{
		{"memory", func() trace.RunReader { return trace.NewRunReader(runs) }},
		{"runs-blocks-1", func() trace.RunReader { return trace.NewBlockReader(trace.NewRunsBlocks(runs, 1)) }},
		{"runs-blocks-7", func() trace.RunReader { return trace.NewBlockReader(trace.NewRunsBlocks(runs, 7)) }},
		{"runs-blocks-4096", func() trace.RunReader { return trace.NewBlockReader(trace.NewRunsBlocks(runs, 4096)) }},
		{"columnar-mmap", func() trace.RunReader { return trace.NewBlockReader(mapped) }},
		{"columnar-readerat", func() trace.RunReader { return trace.NewBlockReader(readAt) }},
		{"checkpointed-generator", func() trace.RunReader { return trace.NewSeekReader(seeker()) }},
	}
	// Six set counts, listed out of order, with associativities 1-16: the
	// kernel visits them coarsest first and stops at the first stack with
	// the line on top, under every schedule.
	cells := []Cell{
		{Sets: 1024, Assoc: 1}, {Sets: 8, Assoc: 8}, {Sets: 256, Assoc: 4}, {Sets: 64, Assoc: 2},
		{Sets: 32, Assoc: 1}, {Sets: 256, Assoc: 1}, {Sets: 16, Assoc: 16}, {Sets: 64, Assoc: 1},
	}
	schedules := []struct {
		name string
		pass SampledPass
	}{
		{"exact", SampledPass{LineSize: 32, Cells: cells, CountDistinct: true}},
		{"warm", SampledPass{LineSize: 32, Cells: cells, Window: 2000, Period: 16_000, Warm: true}},
		{"skip", SampledPass{LineSize: 32, Cells: cells, Window: 2000, Period: 16_000, CountDistinct: true}},
		{"set", SampledPass{LineSize: 32, Cells: cells, SetMod: 8, SetMatch: 3, CountDistinct: true}},
		{"set+skip", SampledPass{LineSize: 64, Cells: cells, SetMod: 4, SetMatch: 1, Window: 512, Period: 4096}},
		{"window=period", SampledPass{LineSize: 32, Cells: cells, Window: 5000, Period: 5000, Warm: true}},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			misses, measured, distinct := oracle(t, sc.pass, refs)
			want, err := sc.pass.Run(runs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Misses, misses) || want.Accesses != measured ||
				want.SampledInstructions != measured || want.TotalInstructions != n {
				t.Fatalf("in-memory %v misses over %d/%d measured, oracle %v over %d/%d",
					want.Misses, want.Accesses, want.TotalInstructions, misses, measured, n)
			}
			if sc.pass.CountDistinct && want.Distinct != distinct {
				t.Fatalf("distinct %d, oracle %d", want.Distinct, distinct)
			}
			for _, src := range sources {
				got, err := sc.pass.Sweep(src.open())
				if err != nil {
					t.Fatalf("%s: %v", src.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: matrix differs from in-memory:\n got %+v\nwant %+v", src.name, got, want)
				}
			}
			if sc.pass.Period > sc.pass.Window && !sc.pass.Warm {
				got, err := sc.pass.RunSeek(seeker())
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("RunSeek: err %v, matrix equal %v", err, reflect.DeepEqual(got, want))
				}
			}
			if sc.pass.SetMod > 1 || sc.pass.Window < sc.pass.Period {
				return
			}
			exact := Pass{LineSize: sc.pass.LineSize, Cells: cells, CountDistinct: sc.pass.CountDistinct}
			fromRefs, err := exact.Run(refs)
			if err != nil || !reflect.DeepEqual(*fromRefs, want.Matrix) {
				t.Errorf("Pass.Run: err %v, %+v != %+v", err, fromRefs, want.Matrix)
			}
			fromBlocks, err := exact.RunBlocks(mapped)
			if err != nil || !reflect.DeepEqual(*fromBlocks, want.Matrix) {
				t.Errorf("Pass.RunBlocks: err %v, %+v != %+v", err, fromBlocks, want.Matrix)
			}
		})
	}
}
