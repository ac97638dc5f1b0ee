// Package check is the simulator-verification subsystem: mechanical proofs
// that the cache and fetch models obey the textbook invariants the paper's
// results depend on, differential tests pinning the parallel experiment
// runners and the trace codec to trusted reference paths, and a pinned
// benchmark-regression harness (driven by cmd/ibscheck) that compares
// CPI/MPI outputs against committed golden values.
//
// Three pillars:
//
//   - Metamorphic invariants: LRU inclusion (Mattson stack semantics — a
//     larger or more-associative cache never misses where a smaller one
//     hits), miss-ratio monotonicity in cache size across the IBS suite,
//     fetch-engine bounds (no engine beats the traffic-free lower bound of
//     one link latency per demand miss, and the bypass/stream engines never
//     do worse than the blocking baseline they refine), and streaming
//     (the generator's runs through FetchRuns) vs materialized (Run)
//     result equality.
//   - Differential testing: the concurrent suite runners in
//     internal/experiments must render bit-identical exhibits to the
//     one-worker reference executor (Workers: 1), and a trace-file round
//     trip (encode → decode) must preserve simulation results exactly.
//   - Benchmark regression: RunBench times a pinned set of simulations and
//     compares their CPI/MPI against golden.go within explicit tolerances.
//
// Checks and Faults are tables of named checks; Run runs either, so every
// check is timed, panic-isolated and selectable by name the same way. Every
// check is also exercised as an ordinary `go test` case in this package, so
// `go test ./...` verifies the simulators without the CLI.
package check

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"time"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Options scales the verification run.
type Options struct {
	// Instructions is the per-workload instruction budget (default
	// PinnedInstructions, the scale the committed goldens were measured
	// at).
	Instructions int64
	// Seed offsets workload generation seeds; 0 keeps the calibrated
	// profile seeds (goldens assume 0).
	Seed uint64
	// Workloads is the profile set invariants sweep over (default: the
	// Mach IBS suite, Section 5's evaluation set).
	Workloads []synth.Profile
	// Match restricts Run to checks whose name matches this regular
	// expression; "" runs the whole table (ibscheck -match).
	Match string
}

func (o Options) withDefaults() Options {
	if o.Instructions <= 0 {
		o.Instructions = PinnedInstructions
	}
	if len(o.Workloads) == 0 {
		o.Workloads = synth.IBSMach()
	}
	return o
}

// Result is one check's verdict.
type Result struct {
	// Name identifies the check, e.g. "invariant/lru-inclusion-assoc".
	Name string `json:"name"`
	// Passed reports whether the property held.
	Passed bool `json:"passed"`
	// Detail is a one-line summary: the quantities compared, or the first
	// violation found.
	Detail string `json:"detail"`
	// Seconds is the check's wall-clock time.
	Seconds float64 `json:"seconds"`
}

// Check is one named property. Run returns a one-line detail when the
// property holds, a Failf error when it does not, and any other error for a
// harness failure: a fixture that could not be built or a simulator
// constructor rejecting a pinned configuration.
type Check struct {
	Name string
	Run  func(Options) (detail string, err error)
}

// failure is the error Failf builds: the checked property did not hold.
type failure struct{ detail string }

func (f *failure) Error() string { return f.detail }

// Failf reports that a check's property did not hold; the formatted text
// becomes the failing Result's detail.
func Failf(format string, args ...any) error {
	return &failure{fmt.Sprintf(format, args...)}
}

// Run runs, in table order, every check whose name matches opt.Match and
// returns one Result per check run. A check that returns a Failf error or
// panics fails its own Result and the run goes on. Any other error is a
// harness failure: the run stops, and the error is returned with the results
// so far, the failed check's last. A Match that selects no check is an
// error too.
func Run(opt Options, checks []Check) ([]Result, error) {
	opt = opt.withDefaults()
	match, err := regexp.Compile(opt.Match)
	if err != nil {
		return nil, fmt.Errorf("check: bad match pattern %q: %w", opt.Match, err)
	}
	var out []Result
	for _, c := range checks {
		if !match.MatchString(c.Name) {
			continue
		}
		r, err := runOne(opt, c)
		out = append(out, r)
		if err != nil {
			return out, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("check: no check matches %q", opt.Match)
	}
	return out, nil
}

// runOne times c and turns its outcome into a Result: a panic or a Failf
// error fails it, and any other error is also returned as a harness failure.
func runOne(opt Options, c Check) (r Result, harness error) {
	r.Name = c.Name
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			r.Passed, r.Detail = false, fmt.Sprintf("panicked: %v", rec)
		}
		r.Seconds = time.Since(start).Seconds()
	}()
	detail, err := c.Run(opt)
	var f *failure
	switch {
	case err == nil:
		r.Passed, r.Detail = true, detail
	case errors.As(err, &f):
		r.Detail = f.detail
	default:
		r.Detail, harness = err.Error(), err
	}
	return r, harness
}

// Checks is the invariant and differential table ibscheck runs by default,
// in report order.
var Checks = []Check{
	{"invariant/lru-inclusion-assoc", inclusionAssoc},
	{"invariant/lru-inclusion-capacity", inclusionCapacity},
	{"invariant/miss-monotonic-fa", missMonotonicFA},
	{"invariant/miss-monotonic-dm", missMonotonicDM},
	{"invariant/engine-lower-bound", engineLowerBound},
	{"invariant/engine-blocking-bound", engineBlockingBound},
	{"invariant/streaming-equality", streamingEquality},
	{"differential/parallel-serial-table4", parallelSerialTable4},
	{"differential/parallel-serial-table1", parallelSerialTable1},
	{"differential/sweep-miss-matrix", sweepMissMatrix},
	{"differential/sweep-figures", sweepFigures},
	{"differential/fanout-tables", fanoutTables},
	{"differential/figure5-physical", figure5Physical},
	{"differential/trace-roundtrip", traceRoundTrip},
	{"differential/columnar-replay", columnarReplay},
	{"differential/blocks-parallel", blocksParallel},
	{"differential/columnar-sweep", columnarSweep},
	{"sampling/bounds-set", samplingBoundsSet},
	{"sampling/bounds-time-warm", samplingBoundsTimeWarm},
	{"sampling/warm-unbiased", samplingWarmUnbiased},
	{"sampling/cold-bias", samplingColdBias},
	{"differential/seek-sampled", seekSampled},
}

// eachTrace calls fn with every workload's trace in opt.Workloads, read from
// synth.DefaultStore through Acquire and released when fn returns.
func eachTrace(opt Options, fn func(p synth.Profile, src trace.RunReader) error) error {
	for _, p := range opt.Workloads {
		src, _, release, err := synth.DefaultStore.Acquire(context.Background(), p, opt.Seed, opt.Instructions)
		if err != nil {
			return fmt.Errorf("%s: trace generation: %w", p.Name, err)
		}
		err = fn(p, src)
		release()
		if err != nil {
			return err
		}
	}
	return nil
}

// AllPassed reports whether every result passed.
func AllPassed(rs []Result) bool {
	for _, r := range rs {
		if !r.Passed {
			return false
		}
	}
	return true
}
