package sweep

import (
	"reflect"
	"testing"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

func seekSource(t *testing.T, name string, seed uint64, n int64, every int64) *synth.SeekSource {
	t.Helper()
	p, err := synth.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var ix *synth.CheckpointIndex
	if every > 0 {
		ix = synth.NewCheckpointIndex(every)
	}
	src, err := synth.NewSeekSource(p, seed, n, ix)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// A sampled pass streamed from a checkpointed generator through its seek
// reader must be bit-identical to Run over the compacted trace for every
// sampling mode: it is the streaming path the server's stream rung takes.
func TestSampledRunSourceMatchesRun(t *testing.T) {
	runs := testRuns(t, "gs", 11, 120_000)
	passes := []SampledPass{
		{LineSize: 32, Cells: sampledGrid(), CountDistinct: true},
		{LineSize: 32, Cells: sampledGrid(), SetMod: 8, SetMatch: 3},
		{LineSize: 32, Cells: sampledGrid(), Window: 2000, Period: 16_000, Warm: true},
		{LineSize: 32, Cells: sampledGrid(), Window: 2000, Period: 16_000},
	}
	for pi, p := range passes {
		want, err := p.Run(runs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Sweep(trace.NewSeekReader(seekSource(t, "gs", 11, 120_000, 4096)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: streamed sweep diverged from Run:\n got %+v\nwant %+v", pi, got, want)
		}
	}
}

func mustProfile(t *testing.T, name string) synth.Profile {
	t.Helper()
	p, err := synth.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// RunSeek over a seekable source must be bit-identical to Run over the
// compacted trace for skip-mode time sampling — with and without a
// checkpoint index, on window-aligned and ragged trace lengths, and with
// set sampling composed in.
func TestSampledRunSeekMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  uint64
		n     int64
		every int64
		pass  SampledPass
	}{
		{"gs", 11, 120_000, 0, SampledPass{LineSize: 32, Cells: sampledGrid(), Window: 2000, Period: 16_000, CountDistinct: true}},
		{"gs", 11, 120_000, 4096, SampledPass{LineSize: 32, Cells: sampledGrid(), Window: 2000, Period: 16_000, CountDistinct: true}},
		{"sdet", 5, 99_123, 1024, SampledPass{LineSize: 32, Cells: sampledGrid(), Window: 1000, Period: 8000}},
		{"mpeg_play", 2, 64_000, 4096, SampledPass{LineSize: 64, Cells: sampledGrid(), Window: 512, Period: 4096, SetMod: 4, SetMatch: 1}},
	} {
		runs := testRuns(t, tc.name, tc.seed, tc.n)
		want, err := tc.pass.Run(runs)
		if err != nil {
			t.Fatal(err)
		}
		src := seekSource(t, tc.name, tc.seed, tc.n, tc.every)
		got, err := tc.pass.RunSeek(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d every=%d: RunSeek diverged from Run:\n got %+v\nwant %+v",
				tc.name, tc.n, tc.every, got, want)
		}
	}
}

// RunSeek refuses plans it cannot honor without walking skipped spans.
func TestSampledRunSeekValidation(t *testing.T) {
	src := seekSource(t, "gs", 1, 10_000, 0)
	for _, p := range []SampledPass{
		{LineSize: 32, Cells: sampledGrid()},                                        // no time sampling
		{LineSize: 32, Cells: sampledGrid(), SetMod: 8, SetMatch: 1},                // set-only
		{LineSize: 32, Cells: sampledGrid(), Window: 500, Period: 500},              // full window
		{LineSize: 32, Cells: sampledGrid(), Window: 500, Period: 4000, Warm: true}, // warm
	} {
		if _, err := p.RunSeek(src); err == nil {
			t.Fatalf("RunSeek accepted plan %+v", p)
		}
	}
}

// A seek-mode pass must also agree when driven through the store tier, whose
// SeekSource shares the memoized checkpoint index across passes.
func TestSampledRunSeekThroughStore(t *testing.T) {
	st := synth.NewStore(16 << 20)
	defer st.Purge()
	st.SetCheckpointEvery(2048)
	prof := mustProfile(t, "verilog")
	const n = 80_000
	runs := testRuns(t, "verilog", 9, n)
	pass := SampledPass{LineSize: 32, Cells: sampledGrid(), Window: 1000, Period: 8000}
	want, err := pass.Run(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second pass hits a warm index
		src, done, err := st.SeekSource(prof, 9, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pass.RunSeek(src)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: store-backed RunSeek diverged from Run", i)
		}
	}
	if s := st.Stats(); s.Checkpoints == 0 {
		t.Fatalf("store recorded no checkpoints: %+v", s)
	}
}

var _ trace.Seeker = (*synth.SeekSource)(nil)
