package check

import (
	"context"
	"fmt"
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

// columnarBank builds the mixed engine bank the columnar differentials
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

// The columnar differentials write a workload's trace to an on-disk
// IBSTRACE/v3 columnar file and read it block by block — through the one
// replay driver and the one sweep kernel — and every result must be
// bit-identical to the []Ref oracle (per-engine fetch.Run, per-cell
// cache.Cache) over the same trace, as must the in-memory runs. Both the
// mmap and the ReaderAt (sequential fallback) access modes are exercised, so
// the zero-copy path can never drift from the portable one.

// columnarFixture is the first workload's trace as refs and as a columnar
// file, with the three run sources the differentials read: the in-memory
// runs, the file in its default access mode, and the file through ReaderAt.
type columnarFixture struct {
	p       synth.Profile
	refs    []trace.Ref
	cf      *trace.ColumnarFile
	mode    string // the default access mode: "mmap" or "sequential"
	sources []runSource
}

// runSource opens one named reader over the fixture's runs.
type runSource struct {
	name string
	open func() trace.RunReader
}

// withColumnarFixture builds the fixture, runs fn on it and removes the file.
func withColumnarFixture(opt Options, fn func(fx columnarFixture) (string, error)) (string, error) {
	fx := columnarFixture{p: opt.Workloads[0]}
	refs, err := synth.InstrTrace(fx.p, opt.Seed, opt.Instructions)
	if err != nil {
		return "", err
	}
	fx.refs = refs
	runs := trace.Compact(refs)

	f, err := os.CreateTemp("", "ibscheck-*.ibsc")
	if err != nil {
		return "", err
	}
	path := f.Name()
	defer os.Remove(path)
	_, err = trace.EncodeColumnarSize(f, runs, columnarCheckBlockBytes)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if fx.cf, err = trace.OpenColumnar(path); err != nil {
		return "", err
	}
	defer fx.cf.Close()
	rf, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer rf.Close()
	seq, err := trace.NewColumnarReaderAt(rf, fx.cf.Size())
	if err != nil {
		return "", err
	}
	fx.mode = "sequential"
	if fx.cf.Mapped() {
		fx.mode = "mmap"
	}
	fx.sources = []runSource{
		{"in-memory", func() trace.RunReader { return trace.NewRunReader(runs) }},
		{fx.mode, func() trace.RunReader { return trace.NewBlockReader(fx.cf) }},
		{"ReaderAt", func() trace.RunReader { return trace.NewBlockReader(seq) }},
	}
	return fn(fx)
}

// columnarReplay replays the engine bank over every source.
func columnarReplay(opt Options) (string, error) {
	return withColumnarFixture(opt, func(fx columnarFixture) (string, error) {
		want, err := replayOracle(fx.refs, replay.SamplePlan{})
		if err != nil {
			return "", err
		}
		if fx.cf.NumBlocks() < 2 {
			return "", Failf("fixture spans %d block(s); block iteration not exercised", fx.cf.NumBlocks())
		}
		if fx.cf.Refs() != int64(len(fx.refs)) {
			return "", Failf("columnar file indexes %d refs, trace has %d", fx.cf.Refs(), len(fx.refs))
		}
		for _, src := range fx.sources {
			bank, err := columnarBank()
			if err != nil {
				return "", fmt.Errorf("building bank: %w", err)
			}
			got, err := replay.Run(context.Background(), src.open(), bank, replay.SamplePlan{})
			if err != nil {
				return "", Failf("%s replay: %v", src.name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					return "", Failf("engine %d diverges from fetch.Run over %s: %+v vs %+v", i, src.name, got[i], want[i])
				}
			}
		}
		return fmt.Sprintf("%s: %d engines x %d blocks (%s + ReaderAt) and in-memory runs == per-engine fetch.Run, bit-exact",
			fx.p.Name, len(want), fx.cf.NumBlocks(), fx.mode), nil
	})
}

// blocksParallel fans the bank out over the file's blocks at several worker
// counts.
func blocksParallel(opt Options) (string, error) {
	return withColumnarFixture(opt, func(fx columnarFixture) (string, error) {
		want, err := replayOracle(fx.refs, replay.SamplePlan{})
		if err != nil {
			return "", err
		}
		for _, workers := range []int{1, 2, 3, 8} {
			bank, err := columnarBank()
			if err != nil {
				return "", fmt.Errorf("building bank: %w", err)
			}
			got, err := replay.BlocksParallel(context.Background(), fx.cf, bank, workers)
			if err != nil {
				return "", Failf("block replay (workers=%d): %v", workers, err)
			}
			for i := range want {
				if got[i] != want[i].Measured {
					return "", Failf("workers=%d engine %d diverges from fetch.Run: %+v vs %+v", workers, i, got[i], want[i].Measured)
				}
			}
		}
		return fmt.Sprintf("%s: block-parallel fan-out over %d blocks at 4 worker counts == per-engine fetch.Run, bit-exact",
			fx.p.Name, fx.cf.NumBlocks()), nil
	})
}

// columnarSweep runs an exact and a time-sampled sweep over every source.
func columnarSweep(opt Options) (string, error) {
	return withColumnarFixture(opt, func(fx columnarFixture) (string, error) {
		cells := []sweep.Cell{
			{Sets: 128, Assoc: 1}, {Sets: 256, Assoc: 2}, {Sets: 512, Assoc: 1}, {Sets: 1024, Assoc: 4},
		}
		for _, sp := range []sweep.SampledPass{
			{LineSize: 32, Cells: cells},
			{LineSize: 32, Cells: cells, Window: 2000, Period: 8000},
		} {
			misses, measured, err := sweepOracle(sp, fx.refs)
			if err != nil {
				return "", fmt.Errorf("oracle: %w", err)
			}
			var first *sweep.SampledMatrix
			for _, src := range fx.sources {
				got, err := sp.Sweep(src.open())
				if err != nil {
					return "", Failf("%s sweep: %v", src.name, err)
				}
				if !sweepMatches(got, misses, measured) {
					return "", Failf("%s sweep (window %d/%d) diverges from per-cell cache.Cache: %v vs %v",
						src.name, sp.Window, sp.Period, got.Misses, misses)
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					return "", Failf("%s sweep (window %d/%d) estimates diverge from in-memory", src.name, sp.Window, sp.Period)
				}
			}
		}
		return fmt.Sprintf("%s: exact + sampled sweeps over %d blocks and in-memory runs == per-cell cache.Cache, bit-exact",
			fx.p.Name, fx.cf.NumBlocks()), nil
	})
}
