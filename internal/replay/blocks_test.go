package replay

import (
	"bytes"
	"context"
	"testing"

	"ibsim/internal/fetch"
	"ibsim/internal/trace"
)

// columnarSource encodes runs into an in-memory columnar image at a block
// size small enough to force many blocks and opens it as a BlockSource.
func columnarSource(t testing.TB, runs []trace.Run, blockBytes int) *trace.ColumnarFile {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.EncodeColumnarSize(&buf, runs, blockBytes); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.NewColumnarBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// An exact replay over a multi-block columnar trace, read through its block
// index, must be bit-identical to Replay over the materialized runs, across
// the whole mixed bank including the class followers.
func TestBlocksMatchesReplay(t *testing.T) {
	runs := trace.Compact(testTrace(21, 80000))
	want, err := Replay(context.Background(), runs, bank(t))
	if err != nil {
		t.Fatal(err)
	}

	cf := columnarSource(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks; trace too small to exercise block iteration", cf.NumBlocks())
	}
	got, err := Run(context.Background(), trace.NewBlockReader(cf), bank(t), SamplePlan{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Measured != want[i] {
			t.Errorf("engine %d: blocks %+v != replay %+v", i, got[i].Measured, want[i])
		}
	}

	// The in-memory reference BlockSource must agree too.
	rb := trace.NewRunsBlocks(runs, 7)
	got2, err := Run(context.Background(), trace.NewBlockReader(rb), bank(t), SamplePlan{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got2[i].Measured != want[i] {
			t.Errorf("engine %d: runs-blocks %+v != replay %+v", i, got2[i].Measured, want[i])
		}
	}
}

// A cancelled context stops a block replay with ctx.Err().
func TestBlocksCancel(t *testing.T) {
	runs := trace.Compact(testTrace(3, 20000))
	cf := columnarSource(t, runs, 512)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BlocksParallel(ctx, cf, bank(t), 1); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A sampled replay over a block source must reproduce Sampled bit for bit
// — Measured counters and every Estimate field — for every plan shape: warm
// time, skip time (the seeking path) and degenerate full-coverage.
func TestSampledBlocksMatchesSampled(t *testing.T) {
	runs := trace.Compact(testTrace(22, 120000))
	cf := columnarSource(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks", cf.NumBlocks())
	}
	plans := map[string]SamplePlan{
		"time-warm":     {Window: 2000, Period: 8000, Warm: true},
		"time-skip":     {Window: 2000, Period: 8000},
		"time-tiny-win": {Window: 64, Period: 4096},
		"full-coverage": {Window: 5000, Period: 5000},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			want, err := Sampled(context.Background(), runs, bank(t), plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), trace.NewBlockReader(cf), bank(t), plan)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("engine %d: blocks %+v != in-memory %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// A sampled replay over a block source validates its plan.
func TestSampledBlocksRejectsBadPlan(t *testing.T) {
	cf := columnarSource(t, trace.Compact(testTrace(1, 100)), 512)
	bad := SamplePlan{Window: 400, Period: 100}
	if _, err := Run(context.Background(), trace.NewBlockReader(cf), bank(t), bad); err == nil {
		t.Fatal("window > period accepted")
	}
}

// A trace much larger than one block must replay block by block without the
// driver ever materializing it: spot-check the bank against fetch.Run on
// the expanded refs.
func TestBlocksPerEngineExact(t *testing.T) {
	refs := testTrace(24, 60000)
	runs := trace.Compact(refs)
	cf := columnarSource(t, runs, 1024)
	engines := bank(t)
	got, err := BlocksParallel(context.Background(), cf, engines, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range bank(t) {
		want := fetch.Run(e, refs)
		if got[i] != want {
			t.Errorf("engine %d: blocks %+v != fetch.Run %+v", i, got[i], want)
		}
	}
}
