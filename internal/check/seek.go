package check

import (
	"bytes"
	"context"
	"os"
	"reflect"

	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Checkpoint-seek differentials: the two acceptance properties of the
// seekable-generator machinery, pinned as first-class ibscheck checks.
//
//   - differential/seek-sampled: a skip-mode time-sampled sweep and replay
//     executed by seeking a checkpointed source from window start to window
//     start (sweep.SampledPass.RunSeek, replay.SampledSeek) must match the
//     []Ref oracle — per-cell cache.Cache and per-engine fetch.Run under the
//     same windows — and the in-memory sampled paths bit for bit, estimates
//     and confidence intervals included.
//   - differential/parallel-spill: the store's parallel columnar spill
//     (scout/worker/merger over checkpoint-aligned chunks) must produce an
//     IBSTRACE/v3 file byte-identical to the sequential spill of the same
//     (profile, seed, n), and replaying it must match the oracle.

const (
	// seekCheckEvery is the checkpoint interval the differentials record
	// at: small enough that the fixture traces span many checkpoints.
	seekCheckEvery = 2048
	// seekCheckWindow/seekCheckPeriod is the skip-mode schedule — 1/16
	// coverage, the service's automatic sampling operating point.
	seekCheckWindow = 1024
	seekCheckPeriod = 16 * seekCheckWindow
)

// seekSpillWorkers is the parallel spill's fan-out in the differential.
const seekSpillWorkers = 4

// SeekChecks runs the checkpoint-seek differentials.
func SeekChecks(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	p := opt.Workloads[0]
	n := opt.Instructions
	ctx := context.Background()

	refs, err := synth.InstrTrace(p, opt.Seed, n)
	if err != nil {
		return nil, err
	}
	runs := trace.Compact(refs)

	var harnessErr error
	var out []Result

	out = append(out, timed(func() Result {
		const name = "differential/seek-sampled"
		store := synth.NewStore(16 << 20)
		store.SetCheckpointEvery(seekCheckEvery)
		defer store.Purge()

		// Warm the index: one full generation pass leaves the checkpoint
		// trail the seeking passes jump through — exactly how ordinary
		// store passes warm it in production. Without it a seek-mode pass
		// only ever generates measured windows and records nothing.
		warm, release, err := store.SeekSource(p, opt.Seed, n)
		if err != nil {
			return fail(name, "warming seek source: %v", err)
		}
		for {
			if _, ok := warm.Next(); !ok {
				break
			}
		}
		release()

		sp := sweep.SampledPass{
			LineSize:      32,
			Cells:         []sweep.Cell{{Sets: 256, Assoc: 1}, {Sets: 512, Assoc: 2}},
			CountDistinct: true,
			Window:        seekCheckWindow,
			Period:        seekCheckPeriod,
		}
		want, err := sp.Run(runs)
		if err != nil {
			return fail(name, "materialized sampled sweep: %v", err)
		}
		misses, measured, err := sweepOracle(sp, refs)
		if err != nil {
			harnessErr = err
			return fail(name, "oracle: %v", err)
		}
		if !sweepMatches(want, misses, measured) {
			return fail(name, "materialized sampled sweep diverges from per-cell cache.Cache: %v vs %v", want.Misses, misses)
		}
		src, release, err := store.SeekSource(p, opt.Seed, n)
		if err != nil {
			return fail(name, "opening seek source: %v", err)
		}
		got, err := sp.RunSeek(src)
		release()
		if err != nil {
			return fail(name, "seeking sampled sweep: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			return fail(name, "seek-sampled sweep diverges from the materialized sampled sweep")
		}

		plan := replay.SamplePlan{Window: seekCheckWindow, Period: seekCheckPeriod}
		wantR, err := replayOracle(refs, plan)
		if err != nil {
			harnessErr = err
			return fail(name, "oracle: %v", err)
		}
		memBank, err := columnarBank()
		if err != nil {
			harnessErr = err
			return fail(name, "building bank: %v", err)
		}
		memR, err := replay.Sampled(ctx, runs, memBank, plan)
		if err != nil {
			return fail(name, "materialized sampled replay: %v", err)
		}
		if !reflect.DeepEqual(memR, wantR) {
			return fail(name, "materialized sampled replay diverges from per-engine fetch.Run")
		}
		gotBank, err := columnarBank()
		if err != nil {
			harnessErr = err
			return fail(name, "building bank: %v", err)
		}
		src, release, err = store.SeekSource(p, opt.Seed, n)
		if err != nil {
			return fail(name, "reopening seek source: %v", err)
		}
		gotR, err := replay.SampledSeek(ctx, src, gotBank, plan)
		release()
		if err != nil {
			return fail(name, "seeking sampled replay: %v", err)
		}
		for i := range wantR {
			if !reflect.DeepEqual(gotR[i], wantR[i]) {
				return fail(name, "engine %d: seek-sampled replay diverges: %+v vs %+v", i, gotR[i], wantR[i])
			}
		}
		st := store.Stats()
		if st.Checkpoints == 0 {
			return fail(name, "store recorded no checkpoints; the seek path degenerated to sequential generation")
		}
		return pass(name, "seek ≡ materialized ≡ oracle at %.1f%% coverage: %d/%d instructions measured, %d checkpoints (%d bytes) indexed",
			100*want.Coverage(), want.SampledInstructions, want.TotalInstructions, st.Checkpoints, st.CheckpointBytes)
	}))

	out = append(out, timed(func() Result {
		const name = "differential/parallel-spill"
		var replayed []fetch.Result
		spill := func(workers int) ([]byte, int64, error) {
			st := synth.NewStore(0)
			st.SetCheckpointEvery(seekCheckEvery)
			st.SetSpillWorkers(workers)
			defer st.Purge()
			cf, release, err := st.Columnar(ctx, p, opt.Seed, n)
			if err != nil {
				return nil, 0, err
			}
			defer release()
			data, err := os.ReadFile(cf.Path())
			if err != nil {
				return nil, 0, err
			}
			if workers > 1 {
				bank, err := columnarBank()
				if err != nil {
					return nil, 0, err
				}
				if replayed, err = replay.BlocksParallel(ctx, cf, bank, 2); err != nil {
					return nil, 0, err
				}
			}
			return data, cf.Refs(), nil
		}
		seq, seqRefs, err := spill(1)
		if err != nil {
			return fail(name, "sequential spill: %v", err)
		}
		par, parRefs, err := spill(seekSpillWorkers)
		if err != nil {
			return fail(name, "parallel spill (%d workers): %v", seekSpillWorkers, err)
		}
		if seqRefs != int64(len(refs)) {
			return fail(name, "sequential spill indexes %d refs, trace has %d", seqRefs, len(refs))
		}
		if parRefs != seqRefs {
			return fail(name, "parallel spill indexes %d refs, sequential %d", parRefs, seqRefs)
		}
		if !bytes.Equal(seq, par) {
			i := 0
			for i < len(seq) && i < len(par) && seq[i] == par[i] {
				i++
			}
			return fail(name, "parallel spill file diverges from sequential at byte %d (%d vs %d bytes total)",
				i, len(par), len(seq))
		}
		want, err := replayOracle(refs, replay.SamplePlan{})
		if err != nil {
			harnessErr = err
			return fail(name, "oracle: %v", err)
		}
		for i := range want {
			if replayed[i] != want[i].Measured {
				return fail(name, "engine %d over the parallel spill diverges from fetch.Run: %+v vs %+v", i, replayed[i], want[i].Measured)
			}
		}
		return pass(name, "%d-worker spill byte-identical to sequential (%d bytes, %d instructions), replay == per-engine fetch.Run",
			seekSpillWorkers, len(seq), seqRefs)
	}))

	return out, harnessErr
}
