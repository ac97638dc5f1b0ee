package sweep

import (
	"context"
	"errors"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// replayMisses simulates one configuration through the trusted cache model.
func replayMisses(t *testing.T, cfg cache.Config, refs []trace.Ref) int64 {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		c.Access(r.Addr)
	}
	return c.Stats().Misses
}

func testRefs(t *testing.T, n int64) []trace.Ref {
	t.Helper()
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestMatrixMatchesPerConfigReplay(t *testing.T) {
	refs := testRefs(t, 200_000)
	for _, lineSize := range []int{8, 32, 256} {
		var cells []Cell
		for _, kb := range []int{4, 16, 64} {
			for _, a := range []int{1, 2, 8} {
				lines := kb * 1024 / lineSize
				cells = append(cells, Cell{Sets: lines / a, Assoc: a})
			}
		}
		m, err := Pass{LineSize: lineSize, Cells: cells}.Run(refs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accesses != int64(len(refs)) {
			t.Fatalf("accesses %d, want %d", m.Accesses, len(refs))
		}
		for i, c := range cells {
			cfg := cache.Config{Size: c.Size(lineSize), LineSize: lineSize, Assoc: c.Assoc}
			want := replayMisses(t, cfg, refs)
			if m.Misses[i] != want {
				t.Errorf("line %d cell %+v: sweep %d misses, cache replay %d", lineSize, c, m.Misses[i], want)
			}
		}
	}
}

func TestFullyAssociativeCell(t *testing.T) {
	refs := testRefs(t, 50_000)
	const lineSize = 32
	lines := 2048 / lineSize
	m, err := Pass{LineSize: lineSize, Cells: []Cell{{Sets: 1, Assoc: lines}}}.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	want := replayMisses(t, cache.Config{Size: 2048, LineSize: lineSize, Assoc: 0}, refs)
	if m.Misses[0] != want {
		t.Fatalf("fully-associative: sweep %d, replay %d", m.Misses[0], want)
	}
}

func TestCountDistinct(t *testing.T) {
	refs := testRefs(t, 100_000)
	const lineSize = 32
	p := Pass{LineSize: lineSize, Cells: []Cell{{Sets: 256, Assoc: 1}}, CountDistinct: true}
	m, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]struct{}{}
	for _, r := range refs {
		seen[r.Addr>>5] = struct{}{}
	}
	if m.Distinct != int64(len(seen)) {
		t.Fatalf("distinct %d, want %d", m.Distinct, len(seen))
	}
	// Compulsory misses are a lower bound for every cell.
	if m.Misses[0] < m.Distinct {
		t.Fatalf("misses %d below compulsory floor %d", m.Misses[0], m.Distinct)
	}
}

func TestRunValidation(t *testing.T) {
	refs := testRefs(t, 10)
	for _, tc := range []struct {
		name string
		pass Pass
	}{
		{"line not power of two", Pass{LineSize: 24, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"zero line", Pass{LineSize: 0, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"line below one instruction", Pass{LineSize: 2, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"one-byte line", Pass{LineSize: 1, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"no cells", Pass{LineSize: 32}},
		{"sets not power of two", Pass{LineSize: 32, Cells: []Cell{{Sets: 3, Assoc: 1}}}},
		{"zero assoc", Pass{LineSize: 32, Cells: []Cell{{Sets: 4, Assoc: 0}}}},
	} {
		if _, err := tc.pass.Run(refs); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestRandomizedGrids cross-checks random geometries on random synthetic
// address streams (not just instruction traces).
func TestRandomizedGrids(t *testing.T) {
	rng := xrand.New(7)
	refs := make([]trace.Ref, 60_000)
	for i := range refs {
		// A mix of sequential runs and jumps keeps all distances exercised.
		if i > 0 && rng.Intn(4) != 0 {
			refs[i].Addr = refs[i-1].Addr + 4
		} else {
			refs[i].Addr = uint64(rng.Intn(1 << 18))
		}
		refs[i].Kind = trace.IFetch
	}
	lineSizes := []int{4, 16, 64}
	for trial := 0; trial < 6; trial++ {
		lineSize := lineSizes[trial%len(lineSizes)]
		var cells []Cell
		for len(cells) < 5 {
			sets := 1 << rng.Intn(10)
			assoc := 1 << rng.Intn(4)
			cells = append(cells, Cell{Sets: sets, Assoc: assoc})
		}
		m, err := Pass{LineSize: lineSize, Cells: cells}.Run(refs)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			cfg := cache.Config{Size: c.Size(lineSize), LineSize: lineSize, Assoc: c.Assoc}
			want := replayMisses(t, cfg, refs)
			if m.Misses[i] != want {
				t.Errorf("trial %d line %d cell %+v: sweep %d, replay %d", trial, lineSize, c, m.Misses[i], want)
			}
		}
	}
}

func BenchmarkSweepFigure3Grid(b *testing.B) {
	p, err := synth.Lookup("gs")
	if err != nil {
		b.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	var cells []Cell
	for _, kb := range []int{16, 32, 64, 128, 256} {
		cells = append(cells, Cell{Sets: kb * 1024 / 64, Assoc: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Pass{LineSize: 64, Cells: cells}.Run(refs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepServeGrid times the sweep grid ibsbench's serve-hot
// workload posts to ibsimd (direct-mapped 4-256 KB plus 2/4/8-way at 8 and
// 32 KB, 32-byte lines) over 1M verilog instructions: Pass.Run over the
// references, which compacts them chunk by chunk on every pass, and
// SampledPass over runs compacted once beforehand, as a store memoizes them,
// under each schedule ibsimd serves — exact (the gap to refs is the
// compaction's share), warm and skip time sampling at the benchmark's
// seek-tier shape (16,384 of every 262,144 instructions), and the ledger's
// 1/16 set sampling. ns/ref-cell divides by every instruction of the trace,
// measured or not.
func BenchmarkSweepServeGrid(b *testing.B) {
	p, err := synth.Lookup("verilog")
	if err != nil {
		b.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	runs := trace.Compact(refs)
	var cells []Cell
	for kb := 4; kb <= 256; kb *= 2 {
		cells = append(cells, Cell{Sets: kb * 1024 / 32, Assoc: 1})
	}
	for _, kb := range []int{8, 32} {
		for _, a := range []int{2, 4, 8} {
			cells = append(cells, Cell{Sets: kb * 1024 / 32 / a, Assoc: a})
		}
	}
	refCells := float64(len(refs)) * float64(len(cells))
	sampled := func(p SampledPass) func() (*Matrix, error) {
		return func() (*Matrix, error) {
			sm, err := p.Run(runs)
			if err != nil {
				return nil, err
			}
			return &sm.Matrix, nil
		}
	}
	for _, tc := range []struct {
		name string
		pass func() (*Matrix, error)
	}{
		{"refs", func() (*Matrix, error) { return Pass{LineSize: 32, Cells: cells}.Run(refs) }},
		{"runs", sampled(SampledPass{LineSize: 32, Cells: cells})},
		{"warm", sampled(SampledPass{LineSize: 32, Cells: cells, Window: 16_384, Period: 262_144, Warm: true})},
		{"skip", sampled(SampledPass{LineSize: 32, Cells: cells, Window: 16_384, Period: 262_144})},
		{"set", sampled(SampledPass{LineSize: 32, Cells: cells, SetMod: 16, SetMatch: 3})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.pass(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/refCells, "ns/ref-cell")
		})
	}
}

// A cancelled pass context stops Run promptly with the context error; a
// live context changes nothing about the result.
func TestRunHonorsContext(t *testing.T) {
	refs := testRefs(t, 200_000)
	cells := []Cell{{Sets: 256, Assoc: 1}, {Sets: 64, Assoc: 4}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Pass{LineSize: 32, Cells: cells, Ctx: ctx}.Run(refs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: err = %v, want context.Canceled", err)
	}

	want, err := Pass{LineSize: 32, Cells: cells}.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Pass{LineSize: 32, Cells: cells, Ctx: context.Background()}.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Misses {
		if got.Misses[i] != want.Misses[i] {
			t.Fatalf("cell %d: ctx run %d misses, plain run %d", i, got.Misses[i], want.Misses[i])
		}
	}
}

// An exact pass streamed from a checkpointed generator must agree exactly
// with Run over the materialized refs: the streaming path is the
// degraded-mode fallback and may not change any number.
func TestRunSourceMatchesRun(t *testing.T) {
	refs := testRefs(t, 150_000)
	p := Pass{
		LineSize:      32,
		Cells:         []Cell{{Sets: 64, Assoc: 1}, {Sets: 256, Assoc: 2}, {Sets: 1024, Assoc: 4}},
		CountDistinct: true,
	}
	want, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := p.sampled().Sweep(seekSource(t, "gs", 0, 150_000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	got := sm.Matrix
	if got.Accesses != want.Accesses || got.Distinct != want.Distinct {
		t.Fatalf("totals differ: %d/%d vs %d/%d", got.Accesses, got.Distinct, want.Accesses, want.Distinct)
	}
	for i := range want.Misses {
		if got.Misses[i] != want.Misses[i] {
			t.Errorf("cell %d: streamed %d misses, materialized %d", i, got.Misses[i], want.Misses[i])
		}
	}
}

// errAfterReader is a trace whose reads fail with err on reaching
// instruction n.
type errAfterReader struct {
	trace.RunReader
	n   int64
	err error
}

func (r errAfterReader) ReadRuns(pos, n int64, fn func([]trace.Run) error) error {
	if n <= r.n-pos {
		return r.RunReader.ReadRuns(pos, n, fn)
	}
	if err := r.RunReader.ReadRuns(pos, r.n-pos, fn); err != nil {
		return err
	}
	return r.err
}

// A run source's error must abort the pass with that error, not a silent
// partial matrix.
func TestRunSourcePropagatesSourceError(t *testing.T) {
	refs := testRefs(t, 10_000)
	boom := errors.New("sweep test: injected stream failure")
	p := SampledPass{LineSize: 32, Cells: []Cell{{Sets: 64, Assoc: 1}}}
	_, err := p.Sweep(errAfterReader{trace.NewRunReader(trace.Compact(refs)), 5_000, boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected cause", err)
	}
}

// Cancellation mid-stream aborts a pass over a run source with the
// context's error.
func TestRunSourceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := SampledPass{LineSize: 32, Cells: []Cell{{Sets: 64, Assoc: 1}}, Ctx: ctx}
	if _, err := p.Sweep(seekSource(t, "gs", 0, 400_000, 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A pass over a run source applies the same validation as Run.
func TestRunSourceValidation(t *testing.T) {
	src := trace.NewRunReader(nil)
	for _, p := range []SampledPass{
		{LineSize: 33, Cells: []Cell{{Sets: 64, Assoc: 1}}},
		{LineSize: 2, Cells: []Cell{{Sets: 64, Assoc: 1}}},
		{LineSize: 32},
	} {
		if _, err := p.Sweep(src); err == nil {
			t.Fatalf("pass %+v accepted", p)
		}
	}
}
