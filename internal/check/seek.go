package check

import (
	"context"
	"fmt"
	"reflect"

	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Checkpoint-seek differential: the acceptance property of the
// seekable-generator machinery, pinned as a first-class ibscheck check.
// differential/seek-sampled: a skip-mode time-sampled sweep and replay
// executed by seeking a checkpointed source from window start to window
// start (sweep.SampledPass.RunSeek, replay.SampledSeek) must match the []Ref
// oracle — per-cell cache.Cache and per-engine fetch.Run under the same
// windows — and the in-memory sampled paths bit for bit, estimates and
// confidence intervals included.

const (
	// seekCheckEvery is the checkpoint interval the differential records
	// at: small enough that the fixture trace spans many checkpoints.
	seekCheckEvery = 2048
	// seekCheckWindow/seekCheckPeriod is the skip-mode schedule — 1/16
	// coverage, the serve-overbudget benchmark's explicit seek plan.
	seekCheckWindow = 1024
	seekCheckPeriod = 16 * seekCheckWindow
)

// seekSampled runs the checkpoint-seek differential.
func seekSampled(opt Options) (string, error) {
	p := opt.Workloads[0]
	n := opt.Instructions
	ctx := context.Background()

	refs, err := synth.InstrTrace(p, opt.Seed, n)
	if err != nil {
		return "", err
	}
	runs := trace.Compact(refs)

	store := synth.NewStore(16 << 20)
	store.SetCheckpointEvery(seekCheckEvery)
	defer store.Purge()

	// Warm the index: one full generation pass leaves the checkpoint
	// trail the seeking passes jump through — exactly how ordinary
	// store passes warm it in production. Without it a seek-mode pass
	// only ever generates measured windows and records nothing.
	warm, release, err := store.SeekSource(p, opt.Seed, n)
	if err != nil {
		return "", Failf("warming seek source: %v", err)
	}
	err = warm.ReadRuns(0, n, func([]trace.Run) error { return nil })
	release()
	if err != nil {
		return "", Failf("warming seek source: %v", err)
	}

	sp := sweep.SampledPass{
		LineSize:      32,
		Cells:         []sweep.Cell{{Sets: 256, Assoc: 1}, {Sets: 512, Assoc: 2}},
		CountDistinct: true,
		Window:        seekCheckWindow,
		Period:        seekCheckPeriod,
	}
	want, err := sp.Run(runs)
	if err != nil {
		return "", Failf("materialized sampled sweep: %v", err)
	}
	misses, measured, err := sweepOracle(sp, refs)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	if !sweepMatches(want, misses, measured) {
		return "", Failf("materialized sampled sweep diverges from per-cell cache.Cache: %v vs %v", want.Misses, misses)
	}
	src, release, err := store.SeekSource(p, opt.Seed, n)
	if err != nil {
		return "", Failf("opening seek source: %v", err)
	}
	got, err := sp.RunSeek(src)
	release()
	if err != nil {
		return "", Failf("seeking sampled sweep: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		return "", Failf("seek-sampled sweep diverges from the materialized sampled sweep")
	}

	plan := replay.SamplePlan{Window: seekCheckWindow, Period: seekCheckPeriod}
	wantR, err := replayOracle(refs, plan)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	memBank, err := columnarBank()
	if err != nil {
		return "", fmt.Errorf("building bank: %w", err)
	}
	memR, err := replay.Sampled(ctx, runs, memBank, plan)
	if err != nil {
		return "", Failf("materialized sampled replay: %v", err)
	}
	if !reflect.DeepEqual(memR, wantR) {
		return "", Failf("materialized sampled replay diverges from per-engine fetch.Run")
	}
	gotBank, err := columnarBank()
	if err != nil {
		return "", fmt.Errorf("building bank: %w", err)
	}
	src, release, err = store.SeekSource(p, opt.Seed, n)
	if err != nil {
		return "", Failf("reopening seek source: %v", err)
	}
	gotR, err := replay.SampledSeek(ctx, src, gotBank, plan)
	release()
	if err != nil {
		return "", Failf("seeking sampled replay: %v", err)
	}
	for i := range wantR {
		if !reflect.DeepEqual(gotR[i], wantR[i]) {
			return "", Failf("engine %d: seek-sampled replay diverges: %+v vs %+v", i, gotR[i], wantR[i])
		}
	}
	st := store.Stats()
	if st.Checkpoints == 0 {
		return "", Failf("store recorded no checkpoints; the seek path degenerated to sequential generation")
	}
	return fmt.Sprintf("seek ≡ materialized ≡ oracle at %.1f%% coverage: %d/%d instructions measured, %d checkpoints (%d bytes) indexed",
		100*want.Coverage(), want.SampledInstructions, want.TotalInstructions, st.Checkpoints, st.CheckpointBytes), nil
}
