package check

import (
	"context"
	"os"
	"reflect"

	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// columnarCheckBlockBytes is the block size the differential checks encode
// at: small enough that even the smallest CLI-test fixture (~10K
// instructions at ~0.4 encoded bytes each) spans several blocks, so the
// block-granular loops actually iterate.
const columnarCheckBlockBytes = 512

// columnarBankSpec builds the mixed engine bank the columnar differentials
// replay: two same-geometry blocking engines (the second is analytically
// derived, exercising the dedup plan on both paths), a prefetcher, a bypass
// engine, and a stream buffer. Engines are stateful, so callers get a fresh
// bank per replay.
func columnarBank() ([]fetch.Engine, error) {
	link := checkLink()
	cfg := baseL1()
	var bank []fetch.Engine
	for _, mk := range []func() (fetch.Engine, error){
		func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 3) },
		func() (fetch.Engine, error) { return fetch.NewBypass(cfg, link, 3) },
		func() (fetch.Engine, error) { return fetch.NewStream(cfg, link, 6) },
	} {
		e, err := mk()
		if err != nil {
			return nil, err
		}
		bank = append(bank, e)
	}
	return bank, nil
}

// ColumnarReplay is the columnar-format differential: a workload's trace is
// written to an on-disk IBSTRACE/v3 columnar file and read block by block —
// through the one replay driver and the one sweep kernel — and every result
// must be bit-identical to the []Ref oracle (per-engine fetch.Run, per-cell
// cache.Cache) over the same trace, as must the in-memory runs. Both the
// mmap and the ReaderAt (sequential fallback) access modes are exercised, so
// the zero-copy path can never drift from the portable one.
func ColumnarReplay(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	p := opt.Workloads[0]
	ctx := context.Background()

	refs, err := synth.InstrTrace(p, opt.Seed, opt.Instructions)
	if err != nil {
		return nil, err
	}
	runs := trace.Compact(refs)

	f, err := os.CreateTemp("", "ibscheck-*.ibsc")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	defer os.Remove(path)
	if _, err := trace.EncodeColumnarSize(f, runs, columnarCheckBlockBytes); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	cf, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	rf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	seq, err := trace.NewColumnarReaderAt(rf, cf.Size())
	if err != nil {
		return nil, err
	}
	mode := "sequential"
	if cf.Mapped() {
		mode = "mmap"
	}
	sources := []struct {
		name string
		open func() trace.RunReader
	}{
		{"in-memory", func() trace.RunReader { return trace.NewRunReader(runs) }},
		{mode, func() trace.RunReader { return trace.NewBlockReader(cf) }},
		{"ReaderAt", func() trace.RunReader { return trace.NewBlockReader(seq) }},
	}
	want, err := replayOracle(refs, replay.SamplePlan{})
	if err != nil {
		return nil, err
	}

	var harnessErr error
	var out []Result

	out = append(out, timed(func() Result {
		const name = "differential/columnar-replay"
		if cf.NumBlocks() < 2 {
			return fail(name, "fixture spans %d block(s); block iteration not exercised", cf.NumBlocks())
		}
		if cf.Refs() != int64(len(refs)) {
			return fail(name, "columnar file indexes %d refs, trace has %d", cf.Refs(), len(refs))
		}
		for _, src := range sources {
			bank, err := columnarBank()
			if err != nil {
				harnessErr = err
				return fail(name, "building bank: %v", err)
			}
			got, err := replay.Run(ctx, src.open(), bank, replay.SamplePlan{})
			if err != nil {
				return fail(name, "%s replay: %v", src.name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					return fail(name, "engine %d diverges from fetch.Run over %s: %+v vs %+v", i, src.name, got[i], want[i])
				}
			}
		}
		return pass(name, "%s: %d engines x %d blocks (%s + ReaderAt) and in-memory runs == per-engine fetch.Run, bit-exact",
			p.Name, len(want), cf.NumBlocks(), mode)
	}))
	if harnessErr != nil {
		return out, harnessErr
	}

	out = append(out, timed(func() Result {
		const name = "differential/blocks-parallel"
		for _, workers := range []int{1, 2, 3, 8} {
			bank, err := columnarBank()
			if err != nil {
				harnessErr = err
				return fail(name, "building bank: %v", err)
			}
			got, err := replay.BlocksParallel(ctx, cf, bank, workers)
			if err != nil {
				return fail(name, "block replay (workers=%d): %v", workers, err)
			}
			for i := range want {
				if got[i] != want[i].Measured {
					return fail(name, "workers=%d engine %d diverges from fetch.Run: %+v vs %+v", workers, i, got[i], want[i].Measured)
				}
			}
		}
		return pass(name, "%s: block-parallel fan-out over %d blocks at 4 worker counts == per-engine fetch.Run, bit-exact",
			p.Name, cf.NumBlocks())
	}))
	if harnessErr != nil {
		return out, harnessErr
	}

	out = append(out, timed(func() Result {
		const name = "differential/columnar-sweep"
		cells := []sweep.Cell{
			{Sets: 128, Assoc: 1}, {Sets: 256, Assoc: 2}, {Sets: 512, Assoc: 1}, {Sets: 1024, Assoc: 4},
		}
		for _, sp := range []sweep.SampledPass{
			{LineSize: 32, Cells: cells},
			{LineSize: 32, Cells: cells, Window: 2000, Period: 8000},
		} {
			misses, measured, err := sweepOracle(sp, refs)
			if err != nil {
				harnessErr = err
				return fail(name, "oracle: %v", err)
			}
			var first *sweep.SampledMatrix
			for _, src := range sources {
				got, err := sp.Sweep(src.open())
				if err != nil {
					return fail(name, "%s sweep: %v", src.name, err)
				}
				if !sweepMatches(got, misses, measured) {
					return fail(name, "%s sweep (window %d/%d) diverges from per-cell cache.Cache: %v vs %v",
						src.name, sp.Window, sp.Period, got.Misses, misses)
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					return fail(name, "%s sweep (window %d/%d) estimates diverge from in-memory", src.name, sp.Window, sp.Period)
				}
			}
		}
		return pass(name, "%s: exact + sampled sweeps over %d blocks and in-memory runs == per-cell cache.Cache, bit-exact",
			p.Name, cf.NumBlocks())
	}))
	return out, harnessErr
}
