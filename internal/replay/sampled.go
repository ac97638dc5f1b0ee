package replay

import (
	"context"
	"fmt"

	"ibsim/internal/fetch"
	"ibsim/internal/sampling"
	"ibsim/internal/trace"
)

// Sampled replay: the fan-out driver's speed/fidelity dial. Instead of
// feeding every engine the whole trace, feed it a statistical sample and
// report each engine's counters together with a sampling.Estimate carrying
// the MPI extrapolation and its 95% confidence interval.
//
// Two mutually exclusive plans:
//
//   - Time sampling (Window/Period): the first Window of every Period
//     instructions are measured. Warm feeds the skipped spans too — engine
//     state stays current ("functional warming", unbiased, the default for
//     the service tier) — while !Warm skips them entirely for maximum speed
//     at a stale-state bias; a source that can seek (a block index, a
//     checkpointed generator) then never even reads the gaps. Each window
//     is one variance cluster. Valid for EVERY engine type: timing, stream
//     buffers, prefetchers.
//
//   - Set sampling (SetMod/SetMatch at LineSize): only the lines of one
//     address congruence class are replayed, in trace order, each line's
//     counter delta credited to one of setClusters subgroups for variance
//     estimation. Every engine sees exactly the sampled lines' fetches, so
//     prefetch-free blocking engines whose line size equals LineSize and
//     whose set count is at least SetMod are exact within the subset;
//     engines with cross-set behavior (stream buffers, next-line prefetch)
//     see a thinned stream and get an approximation. The sweep engine is
//     the first-class home of set sampling — here it exists for
//     blocking-bank studies.
type SamplePlan struct {
	// Window/Period schedule time sampling: the first Window of every
	// Period instructions are measured. Window == Period measures
	// everything (exact, CI 0).
	Window int64
	Period int64
	// Warm replays unmeasured spans without counting them (engine state
	// stays warm); false skips them.
	Warm bool
	// SetMod/SetMatch/LineSize select set sampling instead: only lines (of
	// LineSize bytes) congruent to SetMatch mod SetMod are replayed.
	SetMod   int
	SetMatch int
	LineSize int
}

// setClusters is the number of congruence subgroups a set-sampled replay's
// variance is estimated over.
const setClusters = 8

// timeMode reports whether the plan uses time sampling.
func (p SamplePlan) timeMode() bool { return p.Window > 0 || p.Period > 0 }

// windowed reports whether the plan measures windows with gaps between
// them; Window == Period measures everything as one trace-wide cluster.
func (p SamplePlan) windowed() bool { return p.timeMode() && p.Window < p.Period }

// Validate checks the plan.
func (p SamplePlan) Validate() error {
	timeMode := p.timeMode()
	setMode := p.SetMod != 0 || p.SetMatch != 0 || p.LineSize != 0
	switch {
	case timeMode && setMode:
		return fmt.Errorf("replay: sampling plan mixes time and set dimensions; pick one")
	case timeMode:
		if p.Window <= 0 {
			return fmt.Errorf("replay: sampling window %d must be positive", p.Window)
		}
		if p.Period < p.Window {
			return fmt.Errorf("replay: sampling period %d < window %d", p.Period, p.Window)
		}
	case setMode:
		if p.SetMod <= 1 || p.SetMod&(p.SetMod-1) != 0 {
			return fmt.Errorf("replay: set-sampling modulus %d must be a power of two > 1", p.SetMod)
		}
		if p.SetMatch < 0 || p.SetMatch >= p.SetMod {
			return fmt.Errorf("replay: set-sampling match %d outside [0,%d)", p.SetMatch, p.SetMod)
		}
		if p.LineSize < trace.InstrBytes || p.LineSize&(p.LineSize-1) != 0 {
			return fmt.Errorf("replay: set-sampling line size %d must be a power of two >= %d", p.LineSize, trace.InstrBytes)
		}
	default:
		return fmt.Errorf("replay: sampling plan selects no dimension")
	}
	return nil
}

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
// plan through every engine in the bank, seeking a checkpointed source
// directly between window starts: O(sampled refs + windows · checkpoint
// interval) instead of O(n). Warm and set plans must walk every
// instruction, so they are refused. Results are identical to Sampled over
// the same trace.
func SampledSeek(ctx context.Context, src trace.Seeker, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	if plan.Period <= plan.Window || plan.Warm {
		return nil, fmt.Errorf("replay: SampledSeek needs skip-mode time sampling (window < period, not warm)")
	}
	return Run(ctx, trace.NewSeekReader(src), engines, plan)
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

// feedSpan issues n sequential fetches starting at start.
func feedSpan(e fetch.Engine, re fetch.RunEngine, start uint64, n int64) {
	if re != nil {
		re.FetchRun(start, n)
		return
	}
	addr := start
	for i := int64(0); i < n; i++ {
		e.Fetch(addr)
		addr += trace.InstrBytes
	}
}

// setFilter cuts runs down to the sampled congruence class, one piece per
// touched line, tagging each piece with its variance subgroup (the
// line-address bits just above the modulus).
type setFilter struct {
	shift    uint
	modShift uint
	ipl      int64
	mod      uint64
	match    uint64
	pieces   []trace.Run
	groups   []uint8
	total    int64 // instructions cut so far, sampled or not
}

func newSetFilter(plan SamplePlan) *setFilter {
	f := &setFilter{
		ipl:   int64(plan.LineSize / trace.InstrBytes),
		mod:   uint64(plan.SetMod),
		match: uint64(plan.SetMatch),
	}
	for v := plan.LineSize; v > 1; v >>= 1 {
		f.shift++
	}
	for v := plan.SetMod; v > 1; v >>= 1 {
		f.modShift++
	}
	return f
}

// cut replaces the filter's pieces with the sampled lines of runs.
func (f *setFilter) cut(runs []trace.Run) {
	f.pieces, f.groups = f.pieces[:0], f.groups[:0]
	for _, r := range runs {
		f.total += r.Len
		first := r.Start >> f.shift
		head := min(f.ipl-int64(r.Start/trace.InstrBytes)&(f.ipl-1), r.Len)
		nlines := int64(1)
		if rem := r.Len - head; rem > 0 {
			nlines += (rem + f.ipl - 1) / f.ipl
		}
		for i := int64((f.match - first) & (f.mod - 1)); i < nlines; i += int64(f.mod) {
			start, cnt := r.Start, head
			if i > 0 {
				off := head + (i-1)*f.ipl
				start = r.Start + uint64(off)*trace.InstrBytes
				cnt = min(r.Len-off, f.ipl)
			}
			f.pieces = append(f.pieces, trace.Run{Start: start, Len: cnt, Domain: r.Domain})
			f.groups = append(f.groups, uint8((first+uint64(i))>>f.modShift&(setClusters-1)))
		}
	}
}
