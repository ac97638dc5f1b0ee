package check

import (
	"fmt"
	"math"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// checkLink is the on-chip L1↔L2 interface every engine invariant runs
// against (6-cycle latency, 16 B/cycle — the paper's Figure 3 link, and the
// only baseline fast enough for the stream engine's one-line-per-cycle
// model).
func checkLink() memsys.Transfer { return memsys.L1L2Link() }

// baseL1 is the paper's constrained primary cache.
func baseL1() cache.Config { return cache.Config{Size: 8192, LineSize: 32, Assoc: 1} }

// namedEngine builds a fresh fetch engine (engines are stateful) under the
// name a failure reports.
type namedEngine struct {
	name string
	mk   func() (fetch.Engine, error)
}

// The two inclusion checks verify Mattson stack semantics on the LRU cache
// model, per access, against every workload: a cache that dominates another
// (same sets, higher associativity; or fully associative, larger capacity)
// never misses on a reference the dominated cache hits.

// inclusionAssoc holds the set count (64 sets × 32-B lines) and raises the
// associativity 1→2→4→8.
func inclusionAssoc(opt Options) (string, error) {
	return inclusion(opt, []cache.Config{
		{Size: 2048, LineSize: 32, Assoc: 1},
		{Size: 4096, LineSize: 32, Assoc: 2},
		{Size: 8192, LineSize: 32, Assoc: 4},
		{Size: 16384, LineSize: 32, Assoc: 8},
	})
}

// inclusionCapacity grows a fully associative LRU cache from 2 KB to 16 KB.
func inclusionCapacity(opt Options) (string, error) {
	return inclusion(opt, []cache.Config{
		{Size: 2048, LineSize: 32},
		{Size: 4096, LineSize: 32},
		{Size: 8192, LineSize: 32},
		{Size: 16384, LineSize: 32},
	})
}

func inclusion(opt Options, chain []cache.Config) (string, error) {
	err := eachTrace(opt, func(p synth.Profile, src trace.RunReader) error {
		refs, err := trace.ExpandReader(src)
		if err != nil {
			return err
		}
		return runInclusion(p.Name, refs, chain)
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d workloads x %d refs, no inclusion violation across %d geometries",
		len(opt.Workloads), opt.Instructions, len(chain)), nil
}

// runInclusion replays refs through the chain in lockstep and fails at the
// first access where a dominated cache hits but its dominating neighbor
// misses.
func runInclusion(workload string, refs []trace.Ref, chain []cache.Config) error {
	caches := make([]*cache.Cache, len(chain))
	for i, cfg := range chain {
		c, err := cache.New(cfg)
		if err != nil {
			return fmt.Errorf("building %v: %w", cfg, err)
		}
		caches[i] = c
	}
	hits := make([]bool, len(caches))
	for n, r := range refs {
		for i, c := range caches {
			hits[i] = c.Access(r.Addr)
		}
		for i := 1; i < len(caches); i++ {
			if hits[i-1] && !hits[i] {
				return Failf("%s ref %d addr %#x: %v hit but %v missed",
					workload, n, r.Addr, chain[i-1], chain[i])
			}
		}
	}
	return nil
}

// The two monotonicity checks verify that the miss ratio never rises as
// capacity grows: strictly per workload for fully-associative LRU (a
// consequence of the stack property), and at suite-mean level for the
// paper's direct-mapped geometry, where individual workloads may wiggle
// (conflict misses are not a stack algorithm) but the suite trend Section 4
// plots must hold.

// missMonotonicFA requires each workload's fully-associative LRU misses to
// be nonincreasing in capacity.
func missMonotonicFA(opt Options) (string, error) {
	sizes := []int{1024, 2048, 4096, 8192, 16384, 32768}
	err := eachTrace(opt, func(p synth.Profile, src trace.RunReader) error {
		refs, err := trace.ExpandReader(src)
		if err != nil {
			return err
		}
		prev := int64(-1)
		for i, size := range sizes {
			misses, err := replayMisses(refs, cache.Config{Size: size, LineSize: 32})
			if err != nil {
				return err
			}
			if prev >= 0 && misses > prev {
				return Failf("%s: %dKB FA-LRU missed %d > %dKB's %d",
					p.Name, size/1024, misses, sizes[i-1]/1024, prev)
			}
			prev = misses
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d workloads, FA-LRU misses nonincreasing over %d capacities",
		len(opt.Workloads), len(sizes)), nil
}

// missMonotonicDM requires the suite-mean direct-mapped miss ratio not to
// rise by more than dmSlack relative when capacity doubles.
func missMonotonicDM(opt Options) (string, error) {
	const dmSlack = 0.01
	sizes := []int{2048, 4096, 8192, 16384, 32768, 65536, 131072}
	means := make([]float64, len(sizes))
	err := eachTrace(opt, func(_ synth.Profile, src trace.RunReader) error {
		refs, err := trace.ExpandReader(src)
		if err != nil {
			return err
		}
		for i, size := range sizes {
			misses, err := replayMisses(refs, cache.Config{Size: size, LineSize: 32, Assoc: 1})
			if err != nil {
				return err
			}
			means[i] += float64(misses) / float64(len(refs)) / float64(len(opt.Workloads))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1]*(1+dmSlack) {
			return "", Failf("suite-mean DM miss ratio rose %dKB→%dKB: %.5f → %.5f (slack %.0f%%)",
				sizes[i-1]/1024, sizes[i]/1024, means[i-1], means[i], dmSlack*100)
		}
	}
	return fmt.Sprintf("suite-mean DM miss ratio %.5f→%.5f over %dKB→%dKB, nonincreasing",
		means[0], means[len(means)-1], sizes[0]/1024, sizes[len(sizes)-1]/1024), nil
}

// replayMisses counts misses replaying refs through one cache geometry.
func replayMisses(refs []trace.Ref, cfg cache.Config) (int64, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return 0, fmt.Errorf("check: building %v: %w", cfg, err)
	}
	for _, r := range refs {
		c.Access(r.Addr)
	}
	return c.Stats().Misses, nil
}

// The two engine-bound checks pin the Section 5 fetch engines between two
// oracles on every workload:
//
//   - Traffic-free lower bound: no engine's stall time can beat one link
//     latency per demand miss — the first word of a miss cannot arrive
//     sooner even with infinite bandwidth and no prefetch traffic.
//   - Blocking upper bound: the bypass engine (same fills, earlier restart)
//     must match the blocking engine's miss sequence exactly and never
//     stall longer; the stream engine's demand misses plus buffer hits must
//     equal the blocking engine's misses (identical L1 trajectories), with
//     total stalls no worse.

// boundEngines is the bank both engine-bound checks replay.
func boundEngines() []namedEngine {
	link := checkLink()
	cfg := baseL1()
	return []namedEngine{
		{"blocking", func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 0) }},
		{"prefetch2", func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 2) }},
		{"bypass0", func() (fetch.Engine, error) { return fetch.NewBypass(cfg, link, 0) }},
		{"bypass2", func() (fetch.Engine, error) { return fetch.NewBypass(cfg, link, 2) }},
		{"stream", func() (fetch.Engine, error) { return fetch.NewStream(cfg, link, 6) }},
	}
}

// engineLowerBound checks every engine against the traffic-free bound.
func engineLowerBound(opt Options) (string, error) {
	link := checkLink()
	engines := boundEngines()
	err := eachTrace(opt, func(p synth.Profile, src trace.RunReader) error {
		refs, err := trace.ExpandReader(src)
		if err != nil {
			return err
		}
		for _, ne := range engines {
			e, err := ne.mk()
			if err != nil {
				return fmt.Errorf("building %s: %w", ne.name, err)
			}
			res := fetch.Run(e, refs)
			if min := res.Misses * int64(link.Latency); res.StallCycles < min {
				return Failf("%s/%s: %d stall cycles beat the traffic-free bound %d (%d misses x %d-cycle latency)",
					p.Name, ne.name, res.StallCycles, min, res.Misses, link.Latency)
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d workloads x %d engines: stalls >= misses x %d-cycle latency",
		len(opt.Workloads), len(engines), link.Latency), nil
}

// engineBlockingBound checks the bypass and stream engines against the
// blocking engines they refine.
func engineBlockingBound(opt Options) (string, error) {
	engines := boundEngines()
	err := eachTrace(opt, func(p synth.Profile, src trace.RunReader) error {
		refs, err := trace.ExpandReader(src)
		if err != nil {
			return err
		}
		results := make(map[string]fetch.Result, len(engines))
		for _, ne := range engines {
			e, err := ne.mk()
			if err != nil {
				return fmt.Errorf("building %s: %w", ne.name, err)
			}
			results[ne.name] = fetch.Run(e, refs)
		}
		for _, pair := range [][2]string{{"bypass0", "blocking"}, {"bypass2", "prefetch2"}} {
			by, bl := results[pair[0]], results[pair[1]]
			if by.Misses != bl.Misses {
				return Failf("%s: %s misses %d != %s misses %d (identical fill policies must agree)",
					p.Name, pair[0], by.Misses, pair[1], bl.Misses)
			}
			if by.StallCycles > bl.StallCycles {
				return Failf("%s: %s stalled %d > %s's %d (restart-on-missing-word must not lose)",
					p.Name, pair[0], by.StallCycles, pair[1], bl.StallCycles)
			}
		}
		st, bl := results["stream"], results["blocking"]
		if st.Misses+st.BufferHits != bl.Misses {
			return Failf("%s: stream misses %d + buffer hits %d != blocking misses %d (L1 trajectories must match)",
				p.Name, st.Misses, st.BufferHits, bl.Misses)
		}
		if st.StallCycles > bl.StallCycles {
			return Failf("%s: stream stalled %d > blocking's %d", p.Name, st.StallCycles, bl.StallCycles)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d workloads: bypass/stream never worse than blocking, miss accounting consistent",
		len(opt.Workloads)), nil
}

// streamingEquality verifies that driving an engine from the generator's
// runs (FetchRuns over synth.SeekSource — the O(1)-memory path
// ibsim.SimulateFetch uses) produces results bit-identical to replaying the
// generator's materialized reference stream (fetch.Run over InstrTrace),
// and likewise for raw cache replay (AccessRun against Access per
// reference, as ibsim.SimulateCache does).
func streamingEquality(opt Options) (string, error) {
	link := checkLink()
	cfg := baseL1()
	engines := []namedEngine{
		{"blocking2", func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 2) }},
		{"bypass2", func() (fetch.Engine, error) { return fetch.NewBypass(cfg, link, 2) }},
		{"stream6", func() (fetch.Engine, error) { return fetch.NewStream(cfg, link, 6) }},
	}
	// stream reads p's instructions as runs into fn.
	stream := func(p synth.Profile, fn func([]trace.Run)) error {
		src, err := synth.NewSeekSource(p, opt.Seed, opt.Instructions, nil)
		if err != nil {
			return err
		}
		return src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
			fn(runs)
			return nil
		})
	}
	for _, p := range opt.Workloads {
		refs, err := synth.InstrTrace(p, opt.Seed, opt.Instructions)
		if err != nil {
			return "", fmt.Errorf("trace generation: %w", err)
		}
		for _, ne := range engines {
			e1, err := ne.mk()
			if err != nil {
				return "", fmt.Errorf("building %s: %w", ne.name, err)
			}
			materialized := fetch.Run(e1, refs)
			e2, err := ne.mk()
			if err != nil {
				return "", fmt.Errorf("building %s: %w", ne.name, err)
			}
			if err := stream(p, e2.FetchRuns); err != nil {
				return "", fmt.Errorf("%s/%s: streaming: %w", p.Name, ne.name, err)
			}
			if streamed := e2.Result(); materialized != streamed {
				return "", Failf("%s/%s: Run %+v != FetchRuns %+v", p.Name, ne.name, materialized, streamed)
			}
		}
		// Raw cache replay: Access per reference vs AccessRun per run.
		c1, err := cache.New(cfg)
		if err != nil {
			return "", err
		}
		for _, r := range refs {
			c1.Access(r.Addr)
		}
		c2, err := cache.New(cfg)
		if err != nil {
			return "", err
		}
		err = stream(p, func(runs []trace.Run) {
			for _, r := range runs {
				c2.AccessRun(r.Start, r.Len, trace.InstrBytes)
			}
		})
		if err != nil {
			return "", fmt.Errorf("%s: streaming: %w", p.Name, err)
		}
		if c1.Stats() != c2.Stats() {
			return "", Failf("%s: cache replay stats %+v != streamed %+v", p.Name, c1.Stats(), c2.Stats())
		}
	}
	return fmt.Sprintf("%d workloads x %d engines + cache replay: streaming == materialized",
		len(opt.Workloads), len(engines)), nil
}
