// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a constructor returning a structured
// result plus a Render method that prints rows/series in the layout of the
// paper's exhibit; cmd/ibstables and bench_test.go are thin wrappers over
// this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/replay"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Options control experiment scale. The zero value is usable: defaults are
// applied by (&Options{}).withDefaults().
type Options struct {
	// Instructions is the per-workload instruction budget (default 2M; the
	// paper used ~25M-reference traces per workload).
	Instructions int64
	// Seed offsets every workload's generation seed; 0 keeps the shipped
	// profile seeds (the calibrated configuration).
	Seed uint64
	// Trials is the number of Tapeworm-style repeat runs for variability
	// experiments (default 5, as in Figure 5).
	Trials int
	// Serial forces the per-workload runners (mapRuns, mapProfiles) onto
	// a single goroutine. Results must be bit-identical to the parallel
	// path — internal/check and the differential tests in this package
	// enforce that — so Serial exists as the trusted reference executor,
	// not as a semantic switch.
	Serial bool
	// Workers bounds concurrent per-workload runners. 0 (the default) means
	// auto: one worker per GOMAXPROCS. Each worker holds one workload's
	// trace — its memoized runs, about 3 bytes per instruction, and on the
	// PerConfig paths their 16-byte-per-instruction expansion — so Workers
	// also caps peak memory; shrink it on small machines, raise it past
	// GOMAXPROCS to overlap generation with simulation. Ignored when Serial
	// is set.
	Workers int
	// PerConfig forces the accelerated experiments onto their original
	// one-full-simulation-per-configuration paths: Figures 1, 3, and 4 fall
	// back from the single-pass sweep engine (internal/sweep); Tables 5-8
	// plus Figures 6/7 fall back from the fan-out replay driver
	// (internal/replay) to per-engine fetch.Run over the expanded trace; and
	// Figure 5 plus the pagepolicy ablation fall back from the line-event
	// kernel (physical.go) to one Translate and one Access per reference.
	// Every pair of paths renders byte-identical output — internal/check's
	// sweep, fanout and figure5-physical differentials enforce that — so
	// PerConfig exists as the trusted reference executor, not as a semantic
	// switch.
	PerConfig bool
	// Context, when non-nil, cancels the experiment: in-flight workers
	// observe cancellation at their next trace acquisition, sweep
	// checkpoint, physically-indexed cell or, in the DECstation 3100 rows
	// of Tables 1 and 3, block of 65,536 instructions, and the run returns
	// ctx.Err(). Nil means Background (run to completion).
	Context context.Context
}

// ctx resolves Options.Context, never returning nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Instructions <= 0 {
		o.Instructions = 2_000_000
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	return o
}

// workers resolves the per-workload concurrency bound: 1 when Serial,
// Options.Workers when set, otherwise GOMAXPROCS.
func (o Options) workers() int {
	if o.Serial {
		return 1
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Canonical configurations shared by the Section 5 experiments.

// BaseL1 returns the paper's constrained primary cache: 8-KB direct-mapped,
// 32-byte lines.
func BaseL1() cache.Config {
	return cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
}

// baseL1WithLine returns the base L1 with a different line size.
func baseL1WithLine(lineSize int) cache.Config {
	return cache.Config{Size: 8192, LineSize: lineSize, Assoc: 1}
}

// ibsProfiles returns the Mach IBS suite, the workload set Section 5
// evaluates against.
func ibsProfiles() []synth.Profile { return synth.IBSMach() }

// specProfiles returns the SPEC92 representatives.
func specProfiles() []synth.Profile { return synth.SPEC92() }

// WorkerError is a worker panic converted into an error: one workload's
// simulation blowing up fails its experiment with an attributable, typed
// error instead of crashing the whole process.
type WorkerError struct {
	// Workload names the unit of work that panicked (usually a profile
	// name).
	Workload string
	// Index is the worker's position in the runner's input order.
	Index int
	// Recovered is the value the panic carried.
	Recovered any
	// Stack is the panicking goroutine's stack at recovery.
	Stack string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("experiments: worker %q (index %d) panicked: %v", e.Workload, e.Index, e.Recovered)
}

// mapRuns runs worker over every profile's instruction trace concurrently
// and returns per-profile results in profile order, so reductions stay
// deterministic regardless of scheduling. Each worker reads its trace
// through the run reader synth.DefaultStore.Acquire returns: the memoized
// run compaction, generated once per process for every experiment that
// needs the same (workload, seed, n) stream. The worker gets the runner's
// context, which it should check as it goes. With opt.Serial the profiles
// run one at a time on the calling goroutine — the differential reference
// path.
func mapRuns[T any](profiles []synth.Profile, opt Options, worker func(ctx context.Context, p synth.Profile, src trace.RunReader) (T, error)) ([]T, error) {
	run := func(ctx context.Context, i int) (T, error) {
		src, _, release, err := synth.DefaultStore.Acquire(ctx, profiles[i], opt.Seed, opt.Instructions)
		if err != nil {
			var zero T
			return zero, err
		}
		defer release()
		return worker(ctx, profiles[i], src)
	}
	return mapOrdered(opt.ctx(), len(profiles), opt.workers(), profileName(profiles), run)
}

// mapRefs is mapRuns for the opt.PerConfig reference paths: the worker gets
// the trace expanded to one trace.Ref per instruction, a slice that lives
// only as long as the call.
func mapRefs[T any](profiles []synth.Profile, opt Options, worker func(p synth.Profile, refs []trace.Ref) (T, error)) ([]T, error) {
	return mapRuns(profiles, opt, func(_ context.Context, p synth.Profile, src trace.RunReader) (T, error) {
		refs, err := trace.ExpandReader(src)
		if err != nil {
			var zero T
			return zero, err
		}
		return worker(p, refs)
	})
}

// mapBanks replays every profile's instruction trace through a bank of
// fetch engines and returns, in profile order, each profile's per-engine
// Results in bank order — the one-pass-per-workload primitive behind Tables
// 5-8, Figures 6/7 and every suite-mean engine CPI. mk builds a fresh bank
// per profile (engines are stateful). The default path reads the memoized
// runs (mapRuns) through replay.Run — bulk FetchRuns and one L1 pass per
// content class, each member timed from it; opt.PerConfig selects the
// reference path, one fetch.Run over the expanded trace per engine. Both
// paths produce bit-identical Results (pinned by internal/check's fanout
// differential).
func mapBanks(profiles []synth.Profile, opt Options, mk func() ([]fetch.Engine, error)) ([][]fetch.Result, error) {
	return mapRuns(profiles, opt, func(ctx context.Context, _ synth.Profile, src trace.RunReader) ([]fetch.Result, error) {
		engines, err := mk()
		if err != nil {
			return nil, err
		}
		results := make([]fetch.Result, len(engines))
		if !opt.PerConfig {
			res, err := replay.Run(ctx, src, engines, replay.SamplePlan{})
			if err != nil {
				return nil, err
			}
			for i, r := range res {
				results[i] = r.Measured
			}
			return results, nil
		}
		refs, err := trace.ExpandReader(src)
		if err != nil {
			return nil, err
		}
		for j, e := range engines {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			results[j] = fetch.Run(e, refs)
		}
		return results, nil
	})
}

// mapProfiles runs worker over profiles concurrently (bounded by
// opt.workers) and returns results in profile order. Unlike mapRuns, the
// worker generates its own reference stream — used by whole-system
// experiments that need interleaved data references. The worker gets the
// runner's context and should check it as it goes.
func mapProfiles[T any](profiles []synth.Profile, opt Options, worker func(ctx context.Context, p synth.Profile) (T, error)) ([]T, error) {
	return mapOrdered(opt.ctx(), len(profiles), opt.workers(), profileName(profiles),
		func(ctx context.Context, i int) (T, error) {
			return worker(ctx, profiles[i])
		})
}

// profileName labels runner indices with workload names for WorkerError.
func profileName(profiles []synth.Profile) func(int) string {
	return func(i int) string { return profiles[i].Name }
}

// isCancel reports whether err is pure cancellation noise (as opposed to the
// failure that caused it).
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// mapOrdered executes run(0..n-1) on at most workers goroutines (inline on
// the caller when workers <= 1) and returns the results in index order with
// the first error. The runner is resilient: a worker panic is recovered into
// a *WorkerError naming the workload, the first real failure cancels the
// context handed to sibling workers (so they stop at their next trace
// acquisition or sweep checkpoint instead of running to completion), and
// cancellation of the caller's ctx stops the whole map. When both a real
// error and cancellation errors are present, the real error wins — the
// cancellation is its consequence, not the cause.
func mapOrdered[T any](ctx context.Context, n, workers int, nameOf func(int) string, run func(ctx context.Context, i int) (T, error)) ([]T, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, n)
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if rec := recover(); rec != nil {
				errs[i] = &WorkerError{Workload: nameOf(i), Index: i, Recovered: rec, Stack: string(debug.Stack())}
			}
			if errs[i] != nil && !isCancel(errs[i]) {
				cancel() // first real failure stops the siblings
			}
		}()
		results[i], errs[i] = run(cctx, i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := cctx.Err(); err != nil {
				errs[i] = err
				break
			}
			call(i)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if err := cctx.Err(); err != nil {
					errs[i] = err
					return
				}
				call(i)
			}(i)
		}
		wg.Wait()
	}
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isCancel(err) {
			return nil, err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	if firstCancel != nil {
		return nil, firstCancel
	}
	return results, nil
}

// PanicIsolationSelfTest drives a deliberately panicking worker through the
// parallel runner and returns the resulting error, which must be a typed
// *WorkerError naming the victim workload — the fault-injection harness
// (ibscheck -faults) uses it to prove one bad config cannot crash a run.
func PanicIsolationSelfTest(opt Options) error {
	profiles := ibsProfiles()
	victim := profiles[len(profiles)/2].Name
	_, err := mapProfiles(profiles, opt.withDefaults(), func(_ context.Context, p synth.Profile) (int, error) {
		if p.Name == victim {
			panic(fmt.Sprintf("injected fault in %s", p.Name))
		}
		return 0, nil
	})
	return err
}

// meanOf averages per-profile scalars in order.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// simulateCache feeds every instruction src holds to a fresh cfg cache, one
// demand access each (cache.AccessRun per run), and returns its stats;
// observe, when non-nil, also sees every run.
func simulateCache(cfg cache.Config, src trace.RunReader, observe func(trace.Run)) (cache.Stats, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return cache.Stats{}, err
	}
	err = src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		for _, r := range runs {
			c.AccessRun(r.Start, r.Len, trace.InstrBytes)
			if observe != nil {
				observe(r)
			}
		}
		return nil
	})
	return c.Stats(), err
}

// suiteMeanMPI simulates one cache geometry over every profile and returns
// the suite-mean misses per instruction.
func suiteMeanMPI(profiles []synth.Profile, cfg cache.Config, opt Options) (float64, error) {
	per, err := mapRuns(profiles, opt, func(_ context.Context, _ synth.Profile, src trace.RunReader) (float64, error) {
		st, err := simulateCache(cfg, src, nil)
		return float64(st.Misses) / float64(st.Accesses), err
	})
	return meanOf(per), err
}

// suiteMeanEngineCPI runs an engine factory over every profile, as a bank of
// one, and returns the suite-mean CPIinstr (and MPI).
func suiteMeanEngineCPI(profiles []synth.Profile, opt Options, mk func() (fetch.Engine, error)) (cpiMean, mpiMean float64, err error) {
	per, err := mapBanks(profiles, opt, func() ([]fetch.Engine, error) {
		e, err := mk()
		return []fetch.Engine{e}, err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, v := range per {
		cpiMean += v[0].CPIinstr() / float64(len(per))
		mpiMean += v[0].MPI() / float64(len(per))
	}
	return cpiMean, mpiMean, nil
}

// l1CPI returns the suite-mean L1 CPIinstr for a blocking L1 behind the
// given link.
func l1CPI(profiles []synth.Profile, cfg cache.Config, link memsys.Transfer, opt Options) (float64, error) {
	c, _, err := suiteMeanEngineCPI(profiles, opt, func() (fetch.Engine, error) {
		return fetch.NewBlocking(cfg, link, 0)
	})
	return c, err
}

// l2CPI returns the suite-mean L2 contribution: an L2 cache of the given
// geometry backed by mem, simulated over the full instruction stream (the
// paper's methodology for the L2 contribution).
func l2CPI(profiles []synth.Profile, l2 cache.Config, mem memsys.Transfer, opt Options) (float64, error) {
	c, _, err := suiteMeanEngineCPI(profiles, opt, func() (fetch.Engine, error) {
		return fetch.NewBlocking(l2, mem, 0)
	})
	return c, err
}

// renderTable aligns rows of cells into a text table. Header cells are
// separated from body rows by a rule.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteString("\n")
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
