package check

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/experiments"
	"ibsim/internal/fetch"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// The sweep differentials verify the single-pass sweep engine against the
// trusted per-configuration simulators, two ways.

// sweepMissMatrix is the miss-matrix property: over every workload in the
// suite, randomized capacity × associativity grids at randomized line sizes
// must produce miss counts bit-identical to replaying each cell through
// fetch.NewBlocking + fetch.Run, and fetch.BlockingResult must reconstruct
// the engine's full Result (stall cycles included) exactly.
func sweepMissMatrix(opt Options) (string, error) {
	lineSizes := []int{8, 16, 32, 64, 128}
	link := checkLink()
	cellsChecked, wi := 0, 0
	err := eachTrace(opt, func(p synth.Profile, src trace.RunReader) error {
		// Deterministic per-workload geometry randomization, varied by the
		// run seed so repeated CI runs explore different grids.
		rng := xrand.New(0xB10C<<16 ^ uint64(wi)*2654435761 ^ opt.Seed)
		wi++
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
		if err != nil {
			return fmt.Errorf("%s: sweep: %w", p.Name, err)
		}
		for i, c := range grid {
			cfg := cache.Config{Size: c.Size(lineSize), LineSize: lineSize, Assoc: c.Assoc}
			e, err := fetch.NewBlocking(cfg, link, 0)
			if err != nil {
				return fmt.Errorf("%s: engine for %+v: %w", p.Name, cfg, err)
			}
			want := fetch.Run(e, refs)
			if m.Misses[i] != want.Misses {
				return Failf("%s line %d cell %+v: sweep %d misses, engine %d",
					p.Name, lineSize, c, m.Misses[i], want.Misses)
			}
			got := fetch.BlockingResult(m.Accesses, m.Misses[i], lineSize, link)
			if got != want {
				return Failf("%s line %d cell %+v: analytic %+v != engine %+v",
					p.Name, lineSize, c, got, want)
			}
			cellsChecked++
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d randomized cells across %d workloads bit-identical to per-config engines",
		cellsChecked, len(opt.Workloads)), nil
}

// sweepFigures is the figure differential: Figures 1, 3, and 4 rendered via
// the sweep path must be byte-identical to the Options.PerConfig reference
// path — the guarantee that lets the fast path replace the slow one
// everywhere.
func sweepFigures(opt Options) (string, error) {
	total, err := perConfigRenders(opt, "sweep",
		rendered("Figure1", experiments.Figure1),
		rendered("Figure3", experiments.Figure3),
		rendered("Figure4", experiments.Figure4))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Figures 1/3/4 sweep renders == per-config renders (%d bytes)", total), nil
}
