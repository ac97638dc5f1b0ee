package check

import (
	"context"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/sampling"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// The []Ref oracles the driver differentials compare against: the trusted
// per-configuration simulators fed the expanded reference trace one fetch at
// a time, with sampling schedules applied by instruction position.

// oracleRefs returns p's trace as one trace.Ref per instruction, for a
// per-reference oracle: the memoized runs every check shares, read from
// synth.DefaultStore through Acquire and expanded into a slice the caller
// owns.
func oracleRefs(p synth.Profile, opt Options) ([]trace.Ref, error) {
	src, _, release, err := synth.DefaultStore.Acquire(context.Background(), p, opt.Seed, opt.Instructions)
	if err != nil {
		return nil, err
	}
	defer release()
	return trace.ExpandReader(src)
}

// replayOracle replays refs through a fresh columnarBank, one engine at a
// time, with fetch.Run semantics: exactly for the zero plan, or under a
// time plan with a counter snapshot around every measured window.
func replayOracle(refs []trace.Ref, plan replay.SamplePlan) ([]replay.SampledResult, error) {
	bank, err := columnarBank()
	if err != nil {
		return nil, err
	}
	total := int64(len(refs))
	out := make([]replay.SampledResult, len(bank))
	for i, e := range bank {
		if plan.Window >= plan.Period {
			r := fetch.Run(e, refs)
			out[i] = replay.SampledResult{Measured: r, Estimate: sampling.EstimateFrom(
				[]sampling.Cluster{{Instructions: r.Instructions, Misses: r.Misses}}, total, 1)}
			continue
		}
		var measured, prev fetch.Result
		var clusters []sampling.Cluster
		for j, ref := range refs {
			phase := int64(j) % plan.Period
			if phase == 0 {
				prev = e.Result()
			}
			if phase < plan.Window || plan.Warm {
				e.Fetch(ref.Addr)
			}
			if phase == plan.Window-1 || (phase < plan.Window && j == len(refs)-1) {
				cur := e.Result()
				d := fetch.Result{
					Instructions: cur.Instructions - prev.Instructions,
					Misses:       cur.Misses - prev.Misses,
					BufferHits:   cur.BufferHits - prev.BufferHits,
					StallCycles:  cur.StallCycles - prev.StallCycles,
				}
				measured.Instructions += d.Instructions
				measured.Misses += d.Misses
				measured.BufferHits += d.BufferHits
				measured.StallCycles += d.StallCycles
				clusters = append(clusters, sampling.Cluster{Instructions: d.Instructions, Misses: d.Misses})
			}
		}
		out[i] = replay.SampledResult{Measured: measured,
			Estimate: sampling.EstimateFrom(clusters, total, float64(measured.Instructions)/float64(total))}
	}
	return out, nil
}

// sweepOracle simulates every cell of p on its own cache.Cache over refs
// under p's time schedule (set sampling is not modeled): a reference is fed
// inside a measurement window, or in a gap when Warm, and counted only
// inside a window. It returns the per-cell measured misses and the measured
// instruction count.
func sweepOracle(p sweep.SampledPass, refs []trace.Ref) ([]int64, int64, error) {
	inWindow := func(i int) bool { return p.Period == 0 || int64(i)%p.Period < p.Window }
	misses := make([]int64, len(p.Cells))
	for ci, c := range p.Cells {
		cc, err := cache.New(cache.Config{Size: c.Size(p.LineSize), LineSize: p.LineSize, Assoc: c.Assoc})
		if err != nil {
			return nil, 0, err
		}
		for i, r := range refs {
			if w := inWindow(i); w || p.Warm {
				if !cc.Access(r.Addr) && w {
					misses[ci]++
				}
			}
		}
	}
	var measured int64
	for i := range refs {
		if inWindow(i) {
			measured++
		}
	}
	return misses, measured, nil
}

// sweepMatches reports whether a sampled matrix's measured counts equal the
// oracle's.
func sweepMatches(m *sweep.SampledMatrix, misses []int64, measured int64) bool {
	if m.Accesses != measured || len(m.Misses) != len(misses) {
		return false
	}
	for i := range misses {
		if m.Misses[i] != misses[i] {
			return false
		}
	}
	return true
}
