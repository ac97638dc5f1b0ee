package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ibsim"
	"ibsim/internal/synth"
)

// paper-exhibits: the paper's 15 exhibits in paper order, as ibstables
// renders them, at a quarter of the default scale.
const (
	exhibitInstr   = 500_000
	exhibitTrials  = 5
	exhibitWorkers = 2
)

func exhibitOptions(seed uint64) ibsim.Options {
	return ibsim.Options{Instructions: exhibitInstr, Trials: exhibitTrials, Seed: seed, Workers: exhibitWorkers}
}

// exhibitSetup is one cold set-up: it empties the shared trace store and
// acquires every trace the exhibits take from it (the IBS Mach and SPEC92
// suites with their run compaction, the IBS Ultrix suite as references)
// on two goroutines.
func exhibitSetup(seed uint64) (time.Duration, error) {
	synth.DefaultStore.Purge()
	runtime.GC()
	type job struct {
		p    synth.Profile
		runs bool
	}
	var jobs []job
	for _, p := range synth.IBSMach() {
		jobs = append(jobs, job{p, true})
	}
	for _, p := range synth.IBSUltrix() {
		jobs = append(jobs, job{p, false})
	}
	for _, p := range synth.SPEC92() {
		jobs = append(jobs, job{p, true})
	}
	ctx := context.Background()
	releases := make([]func(), len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < exhibitWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := jobs[i]
				if j.runs {
					_, _, releases[i], errs[i] = synth.DefaultStore.InstrRuns(ctx, j.p, seed, exhibitInstr)
				} else {
					_, releases[i], errs[i] = synth.DefaultStore.InstrCtx(ctx, j.p, seed, exhibitInstr)
				}
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for i, rel := range releases {
		if errs[i] != nil {
			return 0, fmt.Errorf("acquiring %s: %w", jobs[i].p.Name, errs[i])
		}
		rel()
	}
	return d, nil
}

// exhibitOp is one rendered exhibit of a pass.
type exhibitOp struct {
	name      string
	text      string
	err       error
	wall, cpu time.Duration
}

// exhibitPass renders every paper exhibit once, recording a span per
// exhibit under one pass span.
func exhibitPass(opt ibsim.Options, tr *Tracer) []exhibitOp {
	root := tr.Begin("pass", 0, 0)
	defer tr.End(root)
	var ops []exhibitOp
	for _, name := range ibsim.ExhibitNames() {
		c0, w0 := processCPU(), time.Now()
		sp := tr.Begin("exhibit."+name, root, 0)
		text, err := ibsim.RenderExhibit(name, opt, false)
		tr.End(sp)
		ops = append(ops, exhibitOp{name: name, text: text, err: err,
			wall: time.Since(w0), cpu: processCPU().sub(c0).total()})
	}
	return ops
}

// exhibitPhase runs passes until the next one would overrun the time
// budget, at least one.
func exhibitPhase(o *options, tr *Tracer) (passes [][]exhibitOp, n noise) {
	p0 := snap()
	var spent time.Duration
	for len(passes) == 0 || spent+spent/time.Duration(len(passes)) <= time.Duration(o.seconds*float64(time.Second)) {
		w0 := time.Now()
		passes = append(passes, exhibitPass(exhibitOptions(o.seed), tr))
		spent += time.Since(w0)
	}
	return passes, p0.until(snap())
}

func runExhibits(o *options, rep *report) error {
	var setups []float64
	for i := 0; i < o.setupCount(); i++ {
		d, err := exhibitSetup(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(o.out, "setup: %d cold set-ups, median %.3fs %v\n", len(setups), median(setups), setups)

	st0 := synth.DefaultStore.Stats()
	passes, nz := exhibitPhase(o, NewTracer(false))
	st1 := synth.DefaultStore.Stats()
	rss := peakRSSMiB() // before the reference checks add their own memory
	fmt.Fprintf(o.out, "timed phase: %d pass(es): %v\n", len(passes), nz)

	recorded, err := recordedDigests(o)
	if err != nil {
		return err
	}
	v := newVerdicts(recorded)
	for _, pass := range passes {
		for _, op := range pass {
			if op.err == nil {
				name := op.name
				v.add(name, digest([]byte(op.text)), func() error { return exhibitReference(o.seed, name, op.text) })
			}
		}
	}
	v.resolve(2)
	if err := v.record(o); err != nil {
		return err
	}

	var passWall, passCPU []float64
	for _, pass := range passes {
		var pw, pc time.Duration
		for _, op := range pass {
			rep.attempted++
			err := op.err
			if err == nil {
				err = v.verdict(op.name, digest([]byte(op.text)))
			}
			if err != nil {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("exhibit %s: %v", op.name, err))
			}
			pw += op.wall
			pc += op.cpu
		}
		passWall = append(passWall, pw.Seconds())
		passCPU = append(passCPU, pc.Seconds())
	}
	printOpTable(o, passes)

	if o.trace {
		return exhibitLedger(o, rep, nz, passes, storeDelta{st1.Hits - st0.Hits, st1.Misses - st0.Misses, st1.Spills - st0.Spills})
	}
	// A batch caller waits for the whole pass, so the pass is the unit of
	// the per-operation metrics here; with one pass per run p50 = p90.
	// Ranks over the 15 exhibits would not repeat across seeds: which
	// exhibit sits at a rank changes with the traces.
	cpuMS := make([]float64, len(passCPU))
	for i, c := range passCPU {
		cpuMS[i] = 1000 * c
	}
	p50, _ := percentile(cpuMS, 0.5)
	p90, _ := percentile(cpuMS, 0.9)
	ok := float64(rep.attempted-rep.failed) / float64(rep.attempted)
	rep.add("setup_s", "s", median(setups))
	rep.add("wall_s", "s", median(passWall))
	rep.add("cpu_s", "s", median(passCPU))
	rep.add("latency_p50_ms", "ms", 1000*median(passWall))
	rep.add("cpu_ms_p50", "ms", p50)
	rep.add("cpu_ms_p90", "ms", p90)
	rep.add("ok_ratio", "ratio", ok)
	rep.add("exact_ratio", "ratio", ok)
	rep.add("peak_rss_mb", "MiB", rss)
	return nil
}

// exhibitReference renders the exhibit again on the repository's
// reference executors (one simulation per configuration, one workload at a
// time) and compares the text byte for byte.
func exhibitReference(seed uint64, name, got string) error {
	opt := exhibitOptions(seed)
	opt.PerConfig, opt.Serial = true, true
	want, err := ibsim.RenderExhibit(name, opt, false)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if want != got {
		return fmt.Errorf("text differs from the per-configuration serial reference")
	}
	return nil
}

// printOpTable prints each exhibit's wall and CPU time in the first pass.
func printOpTable(o *options, passes [][]exhibitOp) {
	fmt.Fprintf(o.out, "%-10s %10s %10s\n", "exhibit", "wall ms", "cpu ms")
	for _, op := range passes[0] {
		fmt.Fprintf(o.out, "%-10s %10.1f %10.1f\n", op.name, ms(op.wall), ms(op.cpu))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
