// Package replay is the single-pass fan-out driver for the timing-accurate
// fetch engines: it replays one workload's run-compacted instruction trace
// through a whole bank of engine configurations, feeding every grid cell of
// the paper's Tables 5-8 and Figures 6/7 from one pass over the trace per
// distinct L1 — filter once, time many.
//
// Two accelerations stack:
//
//  1. Bulk replay. Each simulated L1 consumes the trace as sequential runs
//     via its FetchRuns fast path (O(resident lines) per run instead of
//     O(instructions); see internal/fetch), which is where compaction pays.
//     A direct-mapped class pass keeps one line key per set instead of a
//     cache.Cache and probes each line of a run once.
//
//  2. Content classes. Engines whose L1s perform the same operations — one
//     geometry, the same lines filled per miss (fetch.Class) — hold the same
//     L1 contents, whatever their link or timing. The bank simulates each
//     class's L1 once: its leader is a member that cannot be split (a
//     Bypass engine, whose hits wait on words in flight) or else one
//     member's bare fetch.Filter pass. Every other member derives its
//     Result from the leader's counts (Blocking: StallCycles = Misses ×
//     FillCycles) or from the leader's logged misses (Stream), handed over
//     one chunk of runs at a time. Figure 6's bandwidth sweep (5 links × 7
//     line sizes) runs 7 L1 passes, Table 8's 12 stream engines 2, and
//     Table 7's 24 engines 12; results are bit-identical to the per-config
//     path (pinned by fetch's tests, this package's oracle tests and the
//     differential/fanout-tables check). Sampled replays share passes the
//     same way: each member snapshots its own counters around a window.
//
// There is one driver loop. It reads any trace.RunReader — in-memory runs,
// a block-indexed columnar file, a checkpointed generator — block-major:
// each chunk of runs the source hands out goes through every simulated L1
// while it is hot. The exact replay is one read of the whole trace; warm and
// skip time sampling walk a sampling.Schedule (SamplePlan). Partitioning the
// classes over workers is the loop's only parallelism. Results come back
// positionally:
// results[i] is what fetch.Run(engines[i], refs) would have produced on the
// expanded trace (or its sampled estimate).
package replay

import (
	"context"
	"math"
	"sync"

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
// block) live memory. The bank's content classes (and whole engines) are
// partitioned across up to workers goroutines, each reading the blocks
// through its own decode buffer (BlockSource implementations allow
// concurrent BlockRuns with distinct buffers); an L1's state is sequential
// across blocks, so the bank is the parallel axis. Results are identical to
// the serial replay.
func BlocksParallel(ctx context.Context, bs trace.BlockSource, engines []fetch.Engine, workers int) ([]fetch.Result, error) {
	return exact(run(ctx, func() trace.RunReader { return trace.NewBlockReader(bs) }, engines, SamplePlan{}, workers))
}

// Run replays the bank over any run source under plan — the package's one
// driver, which every other entry point adapts a trace form to. The zero
// plan replays exactly (each Measured is the engine's full Result, its
// Estimate exhaustive); any other plan must Validate. Engines are mutated —
// a class runs on one member's L1, so the others' own counters stay stale:
// pass freshly built engines and read the returned results.
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

// run plans the bank's content classes, partitions the lanes strided over
// up to workers goroutines (lane k to worker k%workers, so homogeneous
// sweeps spread their heavy classes evenly), and walks the schedule once per
// worker over a source from open. The first worker error cancels its
// siblings.
func run(ctx context.Context, open func() trace.RunReader, engines []fetch.Engine, plan SamplePlan, workers int) ([]SampledResult, error) {
	if plan != (SamplePlan{}) {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	lanes := planBank(engines)
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
		for _, m := range l.members {
			results[m.idx] = l.final(m, plan, total)
		}
	}
	return results, nil
}

// walk is the driver loop: it reads plan's schedule from src, hands each
// chunk of runs to every lane in turn, and returns the trace length. Each
// member snapshots its counters around a window to measure one variance
// cluster. The whole-trace schedule counts the length as it goes (an exact
// replay's engines count every instruction) instead of asking the source
// first.
func walk(ctx context.Context, src trace.RunReader, lanes []*lane, plan SamplePlan) (int64, error) {
	feed := func(runs []trace.Run) error {
		for _, l := range lanes {
			if err := l.feed(ctx, runs); err != nil {
				return err
			}
		}
		return nil
	}
	if !plan.windowed() {
		err := src.ReadRuns(0, math.MaxInt64, feed)
		return lanes[0].e.Result().Instructions, err
	}
	v := sampling.Visit{
		Open: func() {
			for _, l := range lanes {
				for _, m := range l.members {
					m.prev = l.result(m)
				}
			}
		},
		Measure: feed,
		Close: func() {
			for _, l := range lanes {
				for _, m := range l.members {
					d := resultDelta(l.result(m), m.prev)
					m.measured = resultAdd(m.measured, d)
					m.clusters = append(m.clusters, sampling.Cluster{Instructions: d.Instructions, Misses: d.Misses})
				}
			}
		},
	}
	if plan.Warm {
		v.Warm = feed
	}
	return plan.schedule().Walk(src, v)
}

// splitter is an engine that splits into its content class's L1 pass and a
// timing model over that pass (fetch.Blocking, fetch.Stream).
type splitter interface {
	Split() (c fetch.Class, pass *fetch.Filter, t fetch.Timing, ok bool)
}

// leader is an engine that cannot be split but can run its class's pass
// whole: its Result's Instructions and Misses are the class's, and it logs
// the class's misses while its MissLog is on (fetch.Bypass, fetch.Filter).
type leader interface {
	fetch.Engine
	Class() (c fetch.Class, ok bool)
	MissLog() *fetch.MissLog
}

// eventTiming is a timing model that needs every miss of its class, not
// just the count (the stream buffer's).
type eventTiming interface {
	fetch.Timing
	Misses(events []fetch.MissEvent)
}

// lane is one simulated L1 pass and the bank engines it answers for: either
// an engine that runs whole, or a content class — its pass (a member's own
// fetch.Filter, or a leader such as a Bypass engine) plus every member
// timed from the pass's counts and logged misses.
type lane struct {
	e       fetch.Engine
	log     *fetch.MissLog // non-nil when a member times individual misses
	members []*member
}

// member is one bank engine's replay state: its timing over the lane and,
// under a sampling plan, the measured counters and variance clusters so far.
type member struct {
	idx      int          // position in the bank
	t        fetch.Timing // nil: the lane's engine is this member
	et       eventTiming  // t, when it times individual misses
	prev     fetch.Result // counters at the open window's start
	measured fetch.Result
	clusters []sampling.Cluster
}

// planBank groups the bank into lanes, in order of each lane's first
// member. Engines of one content class share a lane. A leader member (a
// Bypass engine) runs the class's pass whole; otherwise the first member's
// own Filter is the pass. Every splitter of the class is timed from the
// pass; engines without a class, and any further leader of a class, run
// whole.
func planBank(engines []fetch.Engine) []*lane {
	var lanes []*lane
	classes := make(map[fetch.Class]*lane)
	led := make(map[*lane]bool) // class lanes whose pass is a leader member
	join := func(c fetch.Class) *lane {
		l := classes[c]
		if l == nil {
			l = &lane{}
			classes[c] = l
			lanes = append(lanes, l)
		}
		return l
	}
	for i, e := range engines {
		m := &member{idx: i}
		var l *lane
		if sp, ok := e.(splitter); ok {
			if c, pass, t, ok := sp.Split(); ok {
				l = join(c)
				if l.e == nil {
					l.e = pass
				}
				m.t = t
				m.et, _ = t.(eventTiming)
			}
		} else if ld, ok := e.(leader); ok {
			if c, ok := ld.Class(); ok && !led[classes[c]] {
				l = join(c)
				l.e = ld
				led[l] = true
			}
		}
		if l == nil {
			l = &lane{e: e}
			lanes = append(lanes, l)
		}
		l.members = append(l.members, m)
	}
	for _, l := range classes {
		for _, m := range l.members {
			if m.et != nil {
				l.log = l.e.(leader).MissLog()
				l.log.On = true
				break
			}
		}
	}
	return lanes
}

// result returns member m's counters so far.
func (l *lane) result(m *member) fetch.Result {
	r := l.e.Result()
	if m.t != nil {
		r = m.t.Result(r.Instructions, r.Misses)
	}
	return r
}

// feed replays runs through the lane in batches, one dynamic dispatch per
// batch, polling the context between them. Each batch's logged misses go to
// the event timings before the next batch.
func (l *lane) feed(ctx context.Context, runs []trace.Run) error {
	for start := 0; start < len(runs); start += runChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.e.FetchRuns(runs[start:min(start+runChunk, len(runs))])
		l.time()
	}
	return nil
}

// time hands the logged misses to the members' event timings and empties
// the log.
func (l *lane) time() {
	if l.log == nil || len(l.log.Events) == 0 {
		return
	}
	for _, m := range l.members {
		if m.et != nil {
			m.et.Misses(l.log.Events)
		}
	}
	l.log.Events = l.log.Events[:0]
}

// final assembles member m's outcome for a trace of total instructions.
func (l *lane) final(m *member, plan SamplePlan, total int64) SampledResult {
	if plan.windowed() {
		f := float64(0)
		if total > 0 {
			f = float64(m.measured.Instructions) / float64(total)
		}
		return SampledResult{Measured: m.measured, Estimate: sampling.EstimateFrom(m.clusters, total, f)}
	}
	res := l.result(m)
	return SampledResult{Measured: res, Estimate: sampling.EstimateFrom(
		[]sampling.Cluster{{Instructions: res.Instructions, Misses: res.Misses}}, total, 1)}
}
