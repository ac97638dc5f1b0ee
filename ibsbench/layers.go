package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/server"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/vm"
)

// The layer ledger times each layer's public calls directly, outside the
// service and the exhibits, on one IBS workload that Figure 5 also uses.
// Every call is a span; a layer's figure is the median over repeated calls
// spanning at least minLayerTime.

const (
	ledgerWorkload = "verilog"
	minLayerTime   = 200 * time.Millisecond
	minLayerReps   = 3
	maxLayerReps   = 2000
	fig5Refs       = exhibitInstr
)

// layers holds the ledger's results: metrics in BENCHMARK.json's per_layer
// set, and per-call medians that model a service request's cost.
type layers struct {
	tr      *Tracer
	metrics []metric
	call    map[string]time.Duration
}

// time calls body repeatedly, one span per call, and returns the median
// call time, also kept under name for the request models.
func (l *layers) time(name string, body func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minLayerReps || (time.Since(start) < minLayerTime && len(ds) < maxLayerReps) {
		sp := l.tr.Begin(name, 0, 0)
		t0 := time.Now()
		if err := body(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(time.Since(t0)))
		l.tr.End(sp)
	}
	d := time.Duration(median(ds))
	l.call[name] = d
	return d, nil
}

func (l *layers) add(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{name, unit, v})
}

// overBudget is the error a call that must fail the 1 MiB budget returns
// when it does not.
func overBudget(err error) error {
	if errors.Is(err, synth.ErrOverBudget) {
		return nil
	}
	if err == nil {
		return errors.New("fits the 1 MiB budget; expected ErrOverBudget")
	}
	return err
}

func sweepCells() []sweep.Cell {
	var cells []sweep.Cell
	for _, c := range serveGrid() {
		cells = append(cells, sweep.Cell{Sets: c.Sets, Assoc: c.Assoc})
	}
	return cells
}

// measureLayers runs the ledger's direct layer calls.
func measureLayers(o *options, tr *Tracer) (*layers, error) {
	l := &layers{tr: tr, call: map[string]time.Duration{}}
	prof, err := synth.Lookup(ledgerWorkload)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	seed := o.seed
	const n1m, n256k, n4m = 1_000_000, 256_000, 4_000_000
	seekSpec := overBudgetShape().classes[2].sampling

	var refs []trace.Ref
	d, err := l.time("synth.generate", func() error {
		r, release, err := synth.NewStore(0).InstrCtx(ctx, prof, seed, n1m)
		if err == nil {
			refs = r
			release()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	l.add("synth.generate_minstr_s", "Minstr/s", n1m/1e6/d.Seconds())

	var runs []trace.Run
	if d, err = l.time("trace.compact", func() error { runs = trace.Compact(refs); return nil }); err != nil {
		return nil, err
	}
	l.add("trace.compact_minstr_s", "Minstr/s", n1m/1e6/d.Seconds())
	runs256k := trace.Compact(refs[:n256k])

	// The over-budget store: 1 MiB hard budget, 256k runs memoized, as
	// serve-overbudget leaves it after warm-up.
	spill := filepath.Join(o.work, fmt.Sprintf("ledger-spill-%d", os.Getpid()))
	ob := synth.NewStoreLimits(serveIdleBudget, 1<<20)
	if err := ob.SetSpillDir(spill); err != nil {
		return nil, err
	}
	defer func() {
		ob.Purge()
		os.RemoveAll(spill)
	}()
	_, release, err := ob.RunsOnly(ctx, prof, seed, n256k)
	if err != nil {
		return nil, err
	}
	release()
	for _, c := range []struct {
		name string
		n    int64
	}{{"1m", n1m}, {"4m", n4m}} {
		if d, err = l.time("synth.runsonly_fail."+c.name, func() error {
			_, _, err := ob.RunsOnly(ctx, prof, seed, c.n)
			return overBudget(err)
		}); err != nil {
			return nil, err
		}
		l.add("synth.runsonly_fail_ms."+c.name, "ms", ms(d))
	}

	coldDir := filepath.Join(o.work, fmt.Sprintf("ledger-cold-%d", os.Getpid()))
	defer os.RemoveAll(coldDir)
	if d, err = l.time("synth.columnar_spill", func() error {
		st := synth.NewStoreLimits(serveIdleBudget, 1<<20)
		if err := st.SetSpillDir(coldDir); err != nil {
			return err
		}
		_, release, err := st.Columnar(ctx, prof, seed, n1m)
		if err == nil {
			release()
		}
		st.Purge()
		return err
	}); err != nil {
		return nil, err
	}
	l.add("synth.columnar_spill_ms", "ms", ms(d))
	cf, releaseCF, err := ob.Columnar(ctx, prof, seed, n1m)
	if err != nil {
		return nil, err
	}
	defer releaseCF()

	if d, err = l.time("synth.columnar_fail", func() error {
		_, _, err := ob.Columnar(ctx, prof, seed, n4m)
		return overBudget(err)
	}); err != nil {
		return nil, err
	}
	l.add("synth.columnar_fail_ms", "ms", ms(d))

	ss, releaseSS, err := ob.SeekSource(prof, seed, n4m)
	if err != nil {
		return nil, err
	}
	defer releaseSS()
	var seekAt int64
	if d, err = l.time("synth.seek", func() error {
		seekAt = (seekAt + seekSpec.Period) % n4m
		return ss.SeekTo(seekAt)
	}); err != nil {
		return nil, err
	}
	l.add("synth.seek_us", "us", float64(d)/1e3)

	var enc bytes.Buffer
	if d, err = l.time("trace.columnar_encode", func() error {
		enc.Reset()
		_, err := trace.EncodeColumnar(&enc, runs)
		return err
	}); err != nil {
		return nil, err
	}
	fileMB := float64(enc.Len()) / 1e6
	l.add("trace.columnar_encode_mb_s", "MB/s", fileMB/d.Seconds())
	mem, err := trace.NewColumnarBytes(enc.Bytes())
	if err != nil {
		return nil, err
	}
	var dst []trace.Run
	if d, err = l.time("trace.columnar_decode", func() error {
		for i := 0; i < mem.NumBlocks(); i++ {
			if dst, err = mem.BlockRuns(i, dst); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	l.add("trace.columnar_decode_mb_s", "MB/s", fileMB/d.Seconds())

	// Figure 5's inner loop: page mapping, then the cache.
	fig5 := refs[:fig5Refs]
	mapCfg := vm.Config{Policy: vm.RandomAlloc, Seed: prof.Seed*1000 + 8*10 + 1}
	phys := make([]uint64, len(fig5))
	if d, err = l.time("vm.translate", func() error {
		m := vm.MustNewMapper(mapCfg)
		m.ResetTrial(0)
		for i, r := range fig5 {
			phys[i] = m.Translate(r.Addr, r.Domain)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	l.add("vm.translate_ns", "ns", float64(d)/float64(len(fig5)))
	for _, g := range []struct {
		name string
		cfg  cache.Config
	}{
		{"dm8k", cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 1}},
		{"2w64k", cache.Config{Size: 64 << 10, LineSize: 32, Assoc: 2}},
		{"4w1m", cache.Config{Size: 1 << 20, LineSize: 32, Assoc: 4}},
	} {
		if d, err = l.time("cache.access."+g.name, func() error {
			c := cache.MustNew(g.cfg)
			for _, a := range phys {
				c.Access(a)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		l.add("cache.access_ns."+g.name, "ns", float64(d)/float64(len(phys)))
	}

	cells := sweepCells()
	refCells := float64(n1m) * float64(len(cells))
	var m *sweep.Matrix
	if d, err = l.time("sweep.run", func() error {
		m, err = sweep.Pass{LineSize: serveLineSize, Cells: cells}.Run(refs)
		return err
	}); err != nil {
		return nil, err
	}
	l.add("sweep.run_ns_per_ref_cell", "ns", float64(d)/refCells)
	if d, err = l.time("sweep.blocks", func() error {
		_, err := sweep.Pass{LineSize: serveLineSize, Cells: cells}.RunBlocks(cf)
		return err
	}); err != nil {
		return nil, err
	}
	l.add("sweep.blocks_ns_per_ref_cell", "ns", float64(d)/refCells)
	if d, err = l.time("sweep.sampled", func() error {
		_, err := sweep.SampledPass{LineSize: serveLineSize, Cells: cells, SetMod: 16, SetMatch: 3}.Run(runs256k)
		return err
	}); err != nil {
		return nil, err
	}
	l.add("sweep.sampled_us", "us", float64(d)/1e3)
	if d, err = l.time("sweep.seek_sampled", func() error {
		src, release, err := ob.SeekSource(prof, seed, n4m)
		if err != nil {
			return err
		}
		defer release()
		_, err = sweep.SampledPass{LineSize: serveLineSize, Cells: cells, Window: seekSpec.Window, Period: seekSpec.Period}.RunSeek(src)
		return err
	}); err != nil {
		return nil, err
	}
	l.add("sweep.seek_sampled_ms", "ms", ms(d))

	bank := func() []fetch.Engine {
		b, err := buildBank()
		if err != nil {
			panic(err) // serveBank is a fixed, valid bank
		}
		return b
	}
	for _, k := range []struct {
		name string
		i    int
	}{{"blocking", 0}, {"bypass", 2}, {"stream", 3}} {
		if d, err = l.time("replay."+k.name, func() error {
			_, err := replay.Replay(ctx, runs, bank()[k.i:k.i+1])
			return err
		}); err != nil {
			return nil, err
		}
		l.add("replay.ns_per_instr."+k.name, "ns", float64(d)/n1m)
	}
	var results []fetch.Result
	if _, err = l.time("replay.bank", func() error {
		results, err = replay.Replay(ctx, runs, bank())
		return err
	}); err != nil {
		return nil, err
	}
	if d, err = l.time("replay.blocks", func() error {
		_, err := replay.BlocksParallel(ctx, cf, bank(), runtime.GOMAXPROCS(0))
		return err
	}); err != nil {
		return nil, err
	}
	l.add("replay.blocks_ns_per_instr", "ns", float64(d)/n1m)
	if _, err = l.time("replay.sampled_auto", func() error {
		_, err := replay.Sampled(ctx, runs256k, bank(), replay.SamplePlan{Window: n256k / 256, Period: 16 * (n256k / 256)})
		return err
	}); err != nil {
		return nil, err
	}
	if d, err = l.time("replay.sampled_seek", func() error {
		src, release, err := ob.SeekSource(prof, seed, n4m)
		if err != nil {
			return err
		}
		defer release()
		_, err = replay.SampledSeek(ctx, src, bank(), replay.SamplePlan{Window: seekSpec.Window, Period: seekSpec.Period})
		return err
	}); err != nil {
		return nil, err
	}
	l.add("replay.sampled_seek_ms", "ms", ms(d))

	if err := l.jsonEncode(m, results); err != nil {
		return nil, err
	}
	return l, nil
}

// jsonEncode times json.Marshal of the service's two response types,
// built from the ledger's own sweep and replay results.
func (l *layers) jsonEncode(m *sweep.Matrix, results []fetch.Result) error {
	sr := &server.SweepResponse{Workload: ledgerWorkload, Instructions: m.Accesses, LineSize: m.LineSize,
		Accesses: m.Accesses, ElapsedSeconds: 0.0123}
	for i, c := range m.Cells {
		sr.Cells = append(sr.Cells, server.CellResult{Sets: c.Sets, Assoc: c.Assoc, SizeBytes: c.Size(m.LineSize), Misses: m.Misses[i]})
	}
	rr := &server.ReplayResponse{Workload: ledgerWorkload, Instructions: m.Accesses, ElapsedSeconds: 0.0123}
	for _, r := range results {
		rr.Results = append(rr.Results, server.EngineResult{Instructions: r.Instructions, Misses: r.Misses,
			BufferHits: r.BufferHits, StallCycles: r.StallCycles, CPI: r.CPIinstr(), MPI: r.MPI()})
	}
	// One span covers a batch: a single encode is too short to time alone.
	const batch = 100
	for _, v := range []struct {
		name string
		val  any
	}{{"sweep", sr}, {"replay", rr}} {
		d, err := l.time("server.json_encode."+v.name, func() error {
			for i := 0; i < batch; i++ {
				if _, err := json.Marshal(v.val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.call["server.json_encode."+v.name] = d / batch
		l.add("server.json_encode_us."+v.name, "us", float64(d)/batch/1e3)
	}
	return nil
}
