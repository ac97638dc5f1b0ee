package main

import (
	"context"
	"fmt"
	"math"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/replay"
	"ibsim/internal/server"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// serveReference recomputes a service answer with the repository's
// reference executors and compares:
//   - exact answers bit for bit with one cache simulation per sweep cell
//     and one fetch.Run per engine over the materialized trace;
//   - explicitly sampled answers bit for bit with the in-memory sampled
//     path (sweep.SampledPass.Run, replay.Sampled) for the same plan;
//   - automatically sampled answers by requiring the exact reference
//     inside every reported 95% confidence interval.
func serveReference(seed uint64, r request, a answer) error {
	prof, err := synth.Lookup(r.workload)
	if err != nil {
		return err
	}
	refs, err := synth.InstrTrace(prof, seed, r.class.n)
	if err != nil {
		return err
	}
	switch {
	case r.class.sampling != nil:
		runs := trace.Compact(refs)
		refs = nil
		if r.endpoint == "sweep" {
			return checkSampledSweep(runs, r.class.sampling, a.sweep)
		}
		return checkSampledReplay(runs, r.class.sampling, a.replay)
	case r.endpoint == "sweep":
		return checkSweep(refs, a.sweep, a.sampled())
	default:
		return checkReplay(refs, a.replay, a.sampled())
	}
}

// within reports whether the exact value lies inside est ± ci.
func within(est, ci, exact float64) bool { return math.Abs(est-exact) <= ci }

func checkSweep(refs []trace.Ref, got *server.SweepResponse, sampled bool) error {
	cells := serveGrid()
	if len(got.Cells) != len(cells) {
		return fmt.Errorf("%w: %d cells, want %d", errMismatch, len(got.Cells), len(cells))
	}
	n := int64(len(refs))
	for i, c := range cells {
		cc := cache.MustNew(cache.Config{Size: c.Sets * c.Assoc * serveLineSize, LineSize: serveLineSize, Assoc: c.Assoc})
		for _, ref := range refs {
			cc.Access(ref.Addr)
		}
		misses := cc.Stats().Misses
		g := got.Cells[i]
		if g.Sets != c.Sets || g.Assoc != c.Assoc {
			return fmt.Errorf("%w: cell %d is %dx%d, want %dx%d", errMismatch, i, g.Sets, g.Assoc, c.Sets, c.Assoc)
		}
		if sampled {
			if exact := float64(misses) / float64(n); !within(g.MPI, g.CI95, exact) {
				return fmt.Errorf("%w: cell %d exact MPI %.6g outside %.6g ± %.6g", errMismatch, i, exact, g.MPI, g.CI95)
			}
			continue
		}
		if g.Misses != misses || g.SizeBytes != c.Sets*c.Assoc*serveLineSize {
			return fmt.Errorf("%w: cell %d misses %d, want %d", errMismatch, i, g.Misses, misses)
		}
	}
	if !sampled && (got.Accesses != n || got.LineSize != serveLineSize || got.Instructions != n) {
		return fmt.Errorf("%w: accesses %d, want %d", errMismatch, got.Accesses, n)
	}
	return nil
}

// buildBank constructs serveBank's engines directly from the fetch
// package.
func buildBank() ([]fetch.Engine, error) {
	var out []fetch.Engine
	for _, s := range serveBank() {
		cfg := cache.Config{Size: s.Size, LineSize: s.LineSize, Assoc: s.Assoc}
		link := memsys.Economy().Memory
		if s.Link.Name == "l1l2" {
			link = memsys.L1L2Link()
		}
		var e fetch.Engine
		var err error
		switch s.Kind {
		case "blocking":
			e, err = fetch.NewBlocking(cfg, link, s.PrefetchLines)
		case "bypass":
			e, err = fetch.NewBypass(cfg, link, s.PrefetchLines)
		case "stream":
			e, err = fetch.NewStream(cfg, link, s.Depth)
		default:
			err = fmt.Errorf("unknown engine kind %q", s.Kind)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func checkReplay(refs []trace.Ref, got *server.ReplayResponse, sampled bool) error {
	bank, err := buildBank()
	if err != nil {
		return err
	}
	if len(got.Results) != len(bank) {
		return fmt.Errorf("%w: %d engine results, want %d", errMismatch, len(got.Results), len(bank))
	}
	for i, e := range bank {
		res := fetch.Run(e, refs)
		g := got.Results[i]
		if sampled {
			if !within(g.MPI, g.CI95, res.MPI()) {
				return fmt.Errorf("%w: engine %d exact MPI %.6g outside %.6g ± %.6g", errMismatch, i, res.MPI(), g.MPI, g.CI95)
			}
			continue
		}
		want := server.EngineResult{Instructions: res.Instructions, Misses: res.Misses, BufferHits: res.BufferHits,
			StallCycles: res.StallCycles, CPI: res.CPIinstr(), MPI: res.MPI()}
		if g != want {
			return fmt.Errorf("%w: engine %d got %+v, want %+v", errMismatch, i, g, want)
		}
	}
	return nil
}

func checkSampledSweep(runs []trace.Run, spec *server.SamplingSpec, got *server.SweepResponse) error {
	cells := make([]sweep.Cell, 0, len(serveGrid()))
	for _, c := range serveGrid() {
		cells = append(cells, sweep.Cell{Sets: c.Sets, Assoc: c.Assoc})
	}
	sm, err := sweep.SampledPass{LineSize: serveLineSize, Cells: cells, Window: spec.Window, Period: spec.Period,
		Warm: !spec.Skip}.Run(runs)
	if err != nil {
		return err
	}
	if len(got.Cells) != len(cells) || got.Accesses != sm.SampledInstructions || got.Sampling == nil ||
		got.Sampling.MeasuredInstructions != sm.SampledInstructions || got.Sampling.Coverage != sm.Coverage() {
		return fmt.Errorf("%w: sampled sweep totals differ from the in-memory sampled pass", errMismatch)
	}
	for i := range cells {
		est := sm.Estimates[i]
		g := got.Cells[i]
		if g.Misses != sm.Misses[i] || g.MPI != est.MPI || g.CI95 != est.CI95 {
			return fmt.Errorf("%w: cell %d got misses %d mpi %v ci %v, want %d %v %v",
				errMismatch, i, g.Misses, g.MPI, g.CI95, sm.Misses[i], est.MPI, est.CI95)
		}
	}
	return nil
}

func checkSampledReplay(runs []trace.Run, spec *server.SamplingSpec, got *server.ReplayResponse) error {
	bank, err := buildBank()
	if err != nil {
		return err
	}
	res, err := replay.Sampled(context.Background(), runs, bank,
		replay.SamplePlan{Window: spec.Window, Period: spec.Period, Warm: !spec.Skip})
	if err != nil {
		return err
	}
	if len(got.Results) != len(res) || got.Sampling == nil || got.Sampling.Coverage != res[0].Estimate.Coverage ||
		got.Sampling.MeasuredInstructions != res[0].Estimate.SampledInstructions {
		return fmt.Errorf("%w: sampled replay totals differ from the in-memory sampled path", errMismatch)
	}
	for i, sr := range res {
		want := server.EngineResult{Instructions: sr.Measured.Instructions, Misses: sr.Measured.Misses,
			BufferHits: sr.Measured.BufferHits, StallCycles: sr.Measured.StallCycles,
			CPI: sr.Measured.CPIinstr(), MPI: sr.Estimate.MPI, CI95: sr.Estimate.CI95}
		if got.Results[i] != want {
			return fmt.Errorf("%w: engine %d got %+v, want %+v", errMismatch, i, got.Results[i], want)
		}
	}
	return nil
}
