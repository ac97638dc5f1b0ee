// Package replay is the single-pass fan-out driver for the timing-accurate
// fetch engines: it replays one workload's run-compacted instruction trace
// through a whole bank of engine configurations, feeding every grid cell of
// the paper's Tables 5-8 and Figures 6/7 from one pass over the trace per
// engine — and often much less.
//
// Two accelerations stack:
//
//  1. Bulk replay. Each engine consumes the trace as sequential runs via its
//     FetchRun fast path (O(resident lines) per run instead of
//     O(instructions); see internal/fetch), which is where compaction pays.
//
//  2. Analytic dedup. Prefetch-free, non-sector blocking engines that share
//     a cache geometry have identical miss streams — the memory link never
//     influences cache contents — so the bank simulates one representative
//     per geometry and reconstructs every other such engine's Result with
//     fetch.BlockingResult (StallCycles = Misses x FillCycles). Figure 6's
//     bandwidth sweep (5 links x 7 line sizes) collapses from 35 replays to
//     7; the equivalence is exact (pinned by fetch's tests and the
//     differential/fanout-tables check), so results stay byte-identical to
//     the per-config path. Sampled replays dedup the same way: identical
//     miss streams give identical window clusters.
//
// There is one driver loop. It reads any trace.RunReader — in-memory runs,
// a block-indexed columnar file, a checkpointed generator — block-major:
// each chunk of runs the source hands out goes through every simulated
// engine while it is hot. Exact, warm and skip time sampling and set
// sampling are schedules that loop walks (SamplePlan), and partitioning the
// bank over workers is its only parallelism. Results come back
// positionally: results[i] is what fetch.Run(engines[i], refs) would have
// produced on the expanded trace (or its sampled estimate).
package replay

import (
	"context"
	"math"
	"sync"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/sampling"
	"ibsim/internal/trace"
)

// runChunk is the batch size handed to FetchRuns between context polls:
// large enough to amortize dispatch, small enough to keep cancellation
// latency well under a millisecond.
const runChunk = 256

// Replay runs every engine in the bank over the same in-memory run-compacted
// instruction trace and returns their Results in bank order. It honors ctx
// periodically within the replay; on cancellation the partial results are
// discarded and ctx.Err() is returned.
func Replay(ctx context.Context, runs []trace.Run, engines []fetch.Engine) ([]fetch.Result, error) {
	return exact(Run(ctx, trace.NewRunReader(runs), engines, SamplePlan{}))
}

// BlocksParallel replays the bank exactly over a block-granular trace (a
// columnar file via mmap, or any block-sliced trace) with O(workers ×
// block) live memory. The simulated engines are partitioned across up to
// workers goroutines, each reading the blocks through its own decode buffer
// (BlockSource implementations allow concurrent BlockRuns with distinct
// buffers); an engine's state is sequential across blocks, so the bank is
// the parallel axis. Results are identical to the serial replay.
func BlocksParallel(ctx context.Context, bs trace.BlockSource, engines []fetch.Engine, workers int) ([]fetch.Result, error) {
	return exact(run(ctx, func() trace.RunReader { return trace.NewBlockReader(bs) }, engines, SamplePlan{}, workers))
}

// Run replays the bank over any run source under plan — the package's one
// driver, which every other entry point adapts a trace form to. The zero
// plan replays exactly (each Measured is the engine's full Result, its
// Estimate exhaustive); any other plan must Validate. Engines are mutated;
// pass freshly built ones.
func Run(ctx context.Context, src trace.RunReader, engines []fetch.Engine, plan SamplePlan) ([]SampledResult, error) {
	return run(ctx, func() trace.RunReader { return src }, engines, plan, 1)
}

// exact projects sampled results onto their measured counters.
func exact(res []SampledResult, err error) ([]fetch.Result, error) {
	if err != nil {
		return nil, err
	}
	out := make([]fetch.Result, len(res))
	for i, r := range res {
		out[i] = r.Measured
	}
	return out, nil
}

// run plans the bank's dedup, partitions the simulated engines strided over
// up to workers goroutines (engine i to worker i%workers, so homogeneous
// sweeps spread their heavy engines evenly), walks the schedule once per
// worker over a source from open, and reconstructs the derived engines. The
// first worker error cancels its siblings.
func run(ctx context.Context, open func() trace.RunReader, engines []fetch.Engine, plan SamplePlan, workers int) ([]SampledResult, error) {
	if plan != (SamplePlan{}) {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	repOf, derived := planBank(engines)
	var lanes []*lane
	for i, e := range engines {
		if _, isDerived := repOf[i]; !isDerived {
			lanes = append(lanes, newLane(i, e, plan))
		}
	}
	workers = max(1, min(workers, len(lanes)))
	groups := make([][]*lane, workers)
	for k, l := range lanes {
		groups[k%workers] = append(groups[k%workers], l)
	}

	var total int64
	switch {
	case len(lanes) == 0:
	case workers == 1:
		var err error
		if total, err = walk(ctx, open(), lanes, plan); err != nil {
			return nil, err
		}
	default:
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		for _, g := range groups {
			wg.Add(1)
			src := open()
			go func() {
				defer wg.Done()
				n, err := walk(ctx, src, g, plan)
				mu.Lock()
				defer mu.Unlock()
				total = n
				if err != nil && firstErr == nil {
					firstErr = err
					cancel() // stop sibling workers promptly
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	results := make([]SampledResult, len(engines))
	for _, l := range lanes {
		results[l.idx] = l.result(plan, total)
	}
	for _, i := range derived {
		rep := results[repOf[i]]
		geom, link, _ := engines[i].(*fetch.Blocking).AnalyticConfig()
		m := rep.Measured
		results[i] = SampledResult{Measured: fetch.BlockingResult(m.Instructions, m.Misses, geom.LineSize, link), Estimate: rep.Estimate}
	}
	return results, nil
}

// walk is the driver loop: it reads plan's schedule from src, hands each
// chunk of runs to every lane in turn, and returns the trace length.
// Windows are [w·Period, w·Period+Window); each lane snapshots its counters
// around a window to measure one variance cluster. Whole-trace schedules
// count the length as they go (an exact replay's engines count every
// instruction) instead of asking the source first.
func walk(ctx context.Context, src trace.RunReader, lanes []*lane, plan SamplePlan) (int64, error) {
	feed := func(runs []trace.Run) error {
		for _, l := range lanes {
			if err := l.feed(ctx, runs); err != nil {
				return err
			}
		}
		return nil
	}
	switch {
	case plan.SetMod > 1:
		f := newSetFilter(plan)
		err := src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
			f.cut(runs)
			for _, l := range lanes {
				if err := l.feedSet(ctx, f); err != nil {
					return err
				}
			}
			return nil
		})
		return f.total, err
	case !plan.windowed():
		err := src.ReadRuns(0, math.MaxInt64, feed)
		return lanes[0].e.Result().Instructions, err
	}
	total := src.Total()
	for start := int64(0); start < total; start += plan.Period {
		for _, l := range lanes {
			l.prev = l.e.Result()
		}
		if err := src.ReadRuns(start, plan.Window, feed); err != nil {
			return 0, err
		}
		for _, l := range lanes {
			d := resultDelta(l.e.Result(), l.prev)
			l.measured = resultAdd(l.measured, d)
			l.clusters = append(l.clusters, sampling.Cluster{Instructions: d.Instructions, Misses: d.Misses})
		}
		if plan.Warm {
			if err := src.ReadRuns(start+plan.Window, plan.Period-plan.Window, feed); err != nil {
				return 0, err
			}
		}
		if start > total-plan.Period {
			break // the next window start would overflow int64
		}
	}
	return total, nil
}

// lane is one simulated engine's replay state: its bulk path and, under a
// sampling plan, the measured counters and variance clusters so far.
type lane struct {
	idx      int // position in the bank
	e        fetch.Engine
	re       fetch.RunEngine // nil: per-instruction Fetch
	prev     fetch.Result    // counters at the open window's start
	measured fetch.Result
	clusters []sampling.Cluster
}

func newLane(idx int, e fetch.Engine, plan SamplePlan) *lane {
	l := &lane{idx: idx, e: e}
	l.re, _ = e.(fetch.RunEngine)
	if plan.SetMod > 1 {
		l.clusters = make([]sampling.Cluster, setClusters)
	}
	return l
}

// feed replays runs through the engine with periodic context polls: bulk
// engines take them in batches (one dynamic dispatch per batch), plain
// engines instruction by instruction.
func (l *lane) feed(ctx context.Context, runs []trace.Run) error {
	for start := 0; start < len(runs); start += runChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := runs[start:min(start+runChunk, len(runs))]
		if l.re != nil {
			l.re.FetchRuns(batch)
			continue
		}
		for _, r := range batch {
			feedSpan(l.e, nil, r.Start, r.Len)
		}
	}
	return nil
}

// feedSet replays the filter's sampled-class pieces, crediting each piece's
// counter delta to its variance subgroup.
func (l *lane) feedSet(ctx context.Context, f *setFilter) error {
	for i, pc := range f.pieces {
		if i&(runChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		prev := l.e.Result()
		feedSpan(l.e, l.re, pc.Start, pc.Len)
		d := resultDelta(l.e.Result(), prev)
		c := &l.clusters[f.groups[i]]
		c.Instructions += d.Instructions
		c.Misses += d.Misses
	}
	return nil
}

// result assembles the lane's outcome for a trace of total instructions.
func (l *lane) result(plan SamplePlan, total int64) SampledResult {
	switch {
	case plan.SetMod > 1:
		return SampledResult{Measured: l.e.Result(), Estimate: sampling.EstimateFrom(l.clusters, total, 1/float64(plan.SetMod))}
	case plan.windowed():
		f := float64(0)
		if total > 0 {
			f = float64(l.measured.Instructions) / float64(total)
		}
		return SampledResult{Measured: l.measured, Estimate: sampling.EstimateFrom(l.clusters, total, f)}
	}
	res := l.e.Result()
	return SampledResult{Measured: res, Estimate: sampling.EstimateFrom(
		[]sampling.Cluster{{Instructions: res.Instructions, Misses: res.Misses}}, total, 1)}
}

// analyticKey groups engines whose miss behavior is fully determined by
// cache geometry. cache.Config is comparable, so it can key a map directly.
type analyticKey struct{ geom cache.Config }

// planBank groups the analytic blocking engines by geometry: the first
// engine of each group is its representative and is simulated for real;
// repOf maps every other group member to it, and derived lists them in bank
// order.
func planBank(engines []fetch.Engine) (repOf map[int]int, derived []int) {
	reps := make(map[analyticKey]int) // geometry -> representative engine index
	repOf = make(map[int]int)
	for i, e := range engines {
		b, ok := e.(*fetch.Blocking)
		if !ok {
			continue
		}
		geom, _, analytic := b.AnalyticConfig()
		if !analytic {
			continue
		}
		key := analyticKey{geom: geom}
		if rep, seen := reps[key]; seen {
			derived = append(derived, i)
			repOf[i] = rep
		} else {
			reps[key] = i
		}
	}
	return repOf, derived
}
