package replay

import (
	"context"
	"fmt"

	"ibsim/internal/fetch"
	"ibsim/internal/sampling"
	"ibsim/internal/trace"
)

// Sampled replay: the fan-out driver's speed/fidelity dial. Instead of
// feeding every engine the whole trace, feed it the windows of a
// sampling.Schedule — the first Window of every Period instructions — and
// report each engine's counters together with a sampling.Estimate carrying
// the MPI extrapolation and its 95% confidence interval. Warm feeds the
// skipped spans too, so engine state stays current ("functional warming",
// the default for the service tier); !Warm skips them entirely for speed at
// a stale-state bias, and a source that can seek (a block index, a
// checkpointed generator) then never even reads the gaps. Each window is one
// variance cluster. Valid for every engine type: timing, stream buffers,
// prefetchers.
type SamplePlan struct {
	// Window/Period schedule time sampling: the first Window of every
	// Period instructions are measured. Window == Period measures
	// everything (exact, CI 0).
	Window int64
	Period int64
	// Warm replays unmeasured spans without counting them (engine state
	// stays warm); false skips them.
	Warm bool
}

// schedule returns the plan's time windows.
func (p SamplePlan) schedule() sampling.Schedule {
	return sampling.Schedule{Window: p.Window, Period: p.Period}
}

// windowed reports whether the plan measures windows with gaps between
// them; Window == Period measures everything as one trace-wide cluster.
func (p SamplePlan) windowed() bool { return p.schedule().Windowed() }

// Validate checks the plan.
func (p SamplePlan) Validate() error { return p.schedule().Validate() }

// SampledResult is one engine's sampled replay outcome.
type SampledResult struct {
	// Measured holds the counters accumulated over measured spans only —
	// Measured.CPIinstr() and Measured.MPI() are the sampled estimates of
	// the full-trace values.
	Measured fetch.Result
	// Estimate extrapolates the miss rate to the full trace with a 95%
	// confidence interval.
	Estimate sampling.Estimate
}

// Sampled replays the sample of an in-memory trace through every engine in
// the bank and returns per-engine estimates in bank order. Engines are
// mutated (fed the sample); as with Replay, pass freshly built engines.
func Sampled(ctx context.Context, runs []trace.Run, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return Run(ctx, trace.NewRunReader(runs), engines, plan)
}

// SampledSeek replays the measured windows of a skip-mode time-sampling
// plan through every engine in the bank, reading a seekable source
// (synth.SeekSource, a checkpointed generator) from window start to window
// start: O(sampled refs + windows · checkpoint interval) instead of O(n).
// Warm plans must walk every instruction, so they are refused. Results are
// identical to Sampled over the same trace.
func SampledSeek(ctx context.Context, src trace.RunReader, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	if plan.Period <= plan.Window || plan.Warm {
		return nil, fmt.Errorf("replay: SampledSeek needs skip-mode time sampling (window < period, not warm)")
	}
	return Run(ctx, src, engines, plan)
}

// resultDelta subtracts two counter snapshots.
func resultDelta(cur, prev fetch.Result) fetch.Result {
	return fetch.Result{
		Instructions: cur.Instructions - prev.Instructions,
		Misses:       cur.Misses - prev.Misses,
		BufferHits:   cur.BufferHits - prev.BufferHits,
		StallCycles:  cur.StallCycles - prev.StallCycles,
	}
}

// resultAdd accumulates a delta.
func resultAdd(acc, d fetch.Result) fetch.Result {
	acc.Instructions += d.Instructions
	acc.Misses += d.Misses
	acc.BufferHits += d.BufferHits
	acc.StallCycles += d.StallCycles
	return acc
}
