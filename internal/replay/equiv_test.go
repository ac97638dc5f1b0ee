package replay

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ibsim/internal/fetch"
	"ibsim/internal/sampling"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// oracle replays refs through every engine of a fresh bank with per-engine
// fetch.Run semantics under plan's schedule: one Fetch per instruction fed,
// a counter snapshot around every measured window (or, for set sampling,
// around every fetch of the sampled class, credited to its subgroup).
func oracle(t *testing.T, refs []trace.Ref, plan SamplePlan) []SampledResult {
	t.Helper()
	total := int64(len(refs))
	var out []SampledResult
	for _, e := range bank(t) {
		var res SampledResult
		switch {
		case plan.SetMod > 1:
			clusters := make([]sampling.Cluster, setClusters)
			for _, r := range refs {
				line := r.Addr / uint64(plan.LineSize)
				if int(line)&(plan.SetMod-1) != plan.SetMatch {
					continue
				}
				prev := e.Result()
				e.Fetch(r.Addr)
				d := resultDelta(e.Result(), prev)
				c := &clusters[line/uint64(plan.SetMod)%setClusters]
				c.Instructions += d.Instructions
				c.Misses += d.Misses
			}
			res.Measured = e.Result()
			res.Estimate = sampling.EstimateFrom(clusters, total, 1/float64(plan.SetMod))
		case plan.windowed():
			var clusters []sampling.Cluster
			var prev fetch.Result
			for i, r := range refs {
				phase := int64(i) % plan.Period
				if phase == 0 {
					prev = e.Result()
				}
				if phase < plan.Window || plan.Warm {
					e.Fetch(r.Addr)
				}
				if phase == plan.Window-1 || (phase < plan.Window && i == len(refs)-1) {
					d := resultDelta(e.Result(), prev)
					res.Measured = resultAdd(res.Measured, d)
					clusters = append(clusters, sampling.Cluster{Instructions: d.Instructions, Misses: d.Misses})
				}
			}
			res.Estimate = sampling.EstimateFrom(clusters, total, float64(res.Measured.Instructions)/float64(total))
		default:
			res.Measured = fetch.Run(e, refs)
			res.Estimate = sampling.EstimateFrom(
				[]sampling.Cluster{{Instructions: res.Measured.Instructions, Misses: res.Measured.Misses}}, total, 1)
		}
		out = append(out, res)
	}
	return out
}

// Every trace source under every schedule must reproduce the per-engine
// fetch.Run oracle across the mixed bank — class followers timed from a
// leader's counts or miss log included — Measured counters and Estimate
// alike. The entry points that
// adapt a trace form to the one driver are checked on the schedules they
// accept: Replay, BlocksParallel at several worker counts, Sampled and
// SampledSeek.
func TestSourcesMatchOracle(t *testing.T) {
	const name, seed, n = "sdet", 5, 99_123
	prof, err := synth.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(prof, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	runs := trace.Compact(refs)
	var enc bytes.Buffer
	if _, err := trace.EncodeColumnarSize(&enc, runs, 512); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sdet.ibstrace")
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
	blockSources := map[string]trace.BlockSource{
		"runs-blocks-1":     trace.NewRunsBlocks(runs, 1),
		"runs-blocks-7":     trace.NewRunsBlocks(runs, 7),
		"runs-blocks-4096":  trace.NewRunsBlocks(runs, 4096),
		"columnar-mmap":     mapped,
		"columnar-readerat": readAt,
	}
	sources := map[string]func() trace.RunReader{
		"memory":                 func() trace.RunReader { return trace.NewRunReader(runs) },
		"checkpointed-generator": func() trace.RunReader { return trace.NewSeekReader(seeker()) },
	}
	for name, bs := range blockSources {
		sources[name] = func() trace.RunReader { return trace.NewBlockReader(bs) }
	}
	plans := map[string]SamplePlan{
		"exact":         {},
		"warm":          {Window: 2000, Period: 8000, Warm: true},
		"skip":          {Window: 1000, Period: 8000},
		"skip-tiny-win": {Window: 64, Period: 4096},
		"set":           {SetMod: 16, SetMatch: 9, LineSize: 32},
		"window=period": {Window: 5000, Period: 5000},
	}
	ctx := context.Background()
	check := func(t *testing.T, what string, got []SampledResult, err error, want []SampledResult) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s engine %d: %+v != oracle %+v", what, i, got[i], want[i])
				}
			}
		}
	}
	for pname, plan := range plans {
		t.Run(pname, func(t *testing.T) {
			want := oracle(t, refs, plan)
			for sname, open := range sources {
				got, err := Run(ctx, open(), bank(t), plan)
				check(t, sname, got, err, want)
			}
			if plan != (SamplePlan{}) {
				got, err := Sampled(ctx, runs, bank(t), plan)
				check(t, "Sampled", got, err, want)
			}
			if plan.windowed() && !plan.Warm {
				got, err := SampledSeek(ctx, seeker(), bank(t), plan)
				check(t, "SampledSeek", got, err, want)
			}
			if plan != (SamplePlan{}) {
				return
			}
			measured := make([]fetch.Result, len(want))
			for i, w := range want {
				measured[i] = w.Measured
			}
			if got, err := Replay(ctx, runs, bank(t)); err != nil || !reflect.DeepEqual(got, measured) {
				t.Errorf("Replay: err %v, results %+v != %+v", err, got, measured)
			}
			for bname, bs := range blockSources {
				for _, workers := range []int{0, 1, 2, 3, 4, 16} {
					if got, err := BlocksParallel(ctx, bs, bank(t), workers); err != nil || !reflect.DeepEqual(got, measured) {
						t.Errorf("BlocksParallel %s workers=%d: err %v, results %+v != %+v", bname, workers, err, got, measured)
					}
				}
			}
		})
	}
}
