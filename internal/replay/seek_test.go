package replay

import (
	"context"
	"reflect"
	"testing"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// synthSeeker builds a seekable source over a synthetic workload plus the
// compacted run list of the identical trace for the reference path.
func synthSeeker(t *testing.T, name string, seed uint64, n int64, every int64) (*synth.SeekSource, []trace.Run) {
	t.Helper()
	p, err := synth.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, seed, n)
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
	return src, trace.Compact(refs)
}

// SampledSeek must be bit-identical to Sampled over the same trace for the
// whole mixed engine bank — blocking, prefetch, sector, bypass, and stream
// engines — with and without a checkpoint index, on aligned and ragged
// trace lengths.
func TestSampledSeekMatchesSampled(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		n      int64
		every  int64
		window int64
		period int64
	}{
		{"gs", 11, 120_000, 0, 2000, 16_000},
		{"gs", 11, 120_000, 4096, 2000, 16_000},
		{"sdet", 5, 99_123, 1024, 1000, 8000},
		{"mpeg_play", 2, 64_000, 4096, 512, 4096},
	} {
		src, runs := synthSeeker(t, tc.name, tc.seed, tc.n, tc.every)
		plan := SamplePlan{Window: tc.window, Period: tc.period}
		want, err := Sampled(context.Background(), runs, bank(t), plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SampledSeek(context.Background(), src, bank(t), plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s/%d every=%d engine %d: seeked %+v != sampled %+v",
					tc.name, tc.n, tc.every, i, got[i], want[i])
			}
		}
	}
}

// SampledSeek refuses plans it cannot honor without walking skipped spans.
func TestSampledSeekValidation(t *testing.T) {
	src, _ := synthSeeker(t, "gs", 1, 10_000, 0)
	for _, plan := range []SamplePlan{
		{},                                      // no window
		{Window: 500, Period: 500},              // full window: nothing to skip
		{Window: 500, Period: 4000, Warm: true}, // warm must walk skipped spans
	} {
		if _, err := SampledSeek(context.Background(), src, bank(t), plan); err == nil {
			t.Fatalf("SampledSeek accepted plan %+v", plan)
		}
	}
}
