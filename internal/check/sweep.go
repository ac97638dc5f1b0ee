package check

import (
	"context"

	"ibsim/internal/cache"
	"ibsim/internal/experiments"
	"ibsim/internal/fetch"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// SweepVsPerConfig verifies the single-pass sweep engine against the trusted
// per-configuration simulators, two ways:
//
//   - Miss-matrix property: over every workload in the suite, randomized
//     capacity × associativity grids at randomized line sizes must produce
//     miss counts bit-identical to replaying each cell through
//     fetch.NewBlocking + fetch.Run, and fetch.BlockingResult must
//     reconstruct the engine's full Result (stall cycles included) exactly.
//   - Figure differential: Figures 1, 3, and 4 rendered via the sweep path
//     must be byte-identical to the Options.PerConfig reference path — the
//     guarantee that lets the fast path replace the slow one everywhere.
func SweepVsPerConfig(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	var harnessErr error
	var out []Result

	out = append(out, timed(func() Result {
		const name = "differential/sweep-miss-matrix"
		lineSizes := []int{8, 16, 32, 64, 128}
		cellsChecked := 0
		for wi, p := range opt.Workloads {
			src, _, release, err := synth.DefaultStore.Acquire(context.Background(), p, opt.Seed, opt.Instructions)
			if err != nil {
				harnessErr = err
				return fail(name, "%s: trace generation: %v", p.Name, err)
			}
			// Deterministic per-workload geometry randomization, varied by
			// the run seed so repeated CI runs explore different grids.
			rng := xrand.New(0xB10C<<16 ^ uint64(wi)*2654435761 ^ opt.Seed)
			lineSize := lineSizes[rng.Intn(len(lineSizes))]
			grid := make([]sweep.Cell, 0, 4)
			for len(grid) < 4 {
				grid = append(grid, sweep.Cell{
					Sets:  1 << (4 + rng.Intn(8)),
					Assoc: 1 << rng.Intn(4),
				})
			}
			m, err := sweep.SampledPass{LineSize: lineSize, Cells: grid}.Sweep(src)
			var refs []trace.Ref // the per-config engines' input
			if err == nil {
				refs, err = trace.ExpandReader(src)
			}
			release()
			if err != nil {
				harnessErr = err
				return fail(name, "%s: sweep: %v", p.Name, err)
			}
			link := checkLink()
			for i, c := range grid {
				cfg := cache.Config{Size: c.Size(lineSize), LineSize: lineSize, Assoc: c.Assoc}
				e, err := fetch.NewBlocking(cfg, link, 0)
				if err != nil {
					harnessErr = err
					return fail(name, "%s: engine for %+v: %v", p.Name, cfg, err)
				}
				want := fetch.Run(e, refs)
				if m.Misses[i] != want.Misses {
					return fail(name, "%s line %d cell %+v: sweep %d misses, engine %d",
						p.Name, lineSize, c, m.Misses[i], want.Misses)
				}
				got := fetch.BlockingResult(m.Accesses, m.Misses[i], lineSize, link)
				if got != want {
					return fail(name, "%s line %d cell %+v: analytic %+v != engine %+v",
						p.Name, lineSize, c, got, want)
				}
				cellsChecked++
			}
		}
		return pass(name, "%d randomized cells across %d workloads bit-identical to per-config engines",
			cellsChecked, len(opt.Workloads))
	}))
	if harnessErr != nil {
		return out, harnessErr
	}

	out = append(out, timed(func() Result {
		const name = "differential/sweep-figures"
		sweepOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
		refOpt := sweepOpt
		refOpt.PerConfig = true
		total := 0
		for _, fig := range []struct {
			name string
			run  func(experiments.Options) (string, error)
		}{
			{"Figure1", func(o experiments.Options) (string, error) {
				r, err := experiments.Figure1(o)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}},
			{"Figure3", func(o experiments.Options) (string, error) {
				r, err := experiments.Figure3(o)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}},
			{"Figure4", func(o experiments.Options) (string, error) {
				r, err := experiments.Figure4(o)
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}},
		} {
			fast, err := fig.run(sweepOpt)
			if err != nil {
				harnessErr = err
				return fail(name, "%s sweep path: %v", fig.name, err)
			}
			ref, err := fig.run(refOpt)
			if err != nil {
				harnessErr = err
				return fail(name, "%s per-config path: %v", fig.name, err)
			}
			if fast != ref {
				return fail(name, "%s: sweep and per-config renders differ", fig.name)
			}
			total += len(fast)
		}
		return pass(name, "Figures 1/3/4 sweep renders == per-config renders (%d bytes)", total)
	}))
	return out, harnessErr
}
