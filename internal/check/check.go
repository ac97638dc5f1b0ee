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
//     Options.Serial reference executor, and a trace-file round trip
//     (encode → decode) must preserve simulation results exactly.
//   - Benchmark regression: RunBench times a pinned set of simulations and
//     compares their CPI/MPI against golden.go within explicit tolerances.
//
// Every check is also exercised as an ordinary `go test` case in this
// package, so `go test ./...` verifies the simulators without the CLI.
package check

import (
	"fmt"
	"time"

	"ibsim/internal/synth"
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
	// ChaosFilter restricts RunChaos to scenarios whose name matches this
	// regular expression; "" runs the full suite (ibscheck -match).
	ChaosFilter string
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

// pass and fail build Results.
func pass(name, format string, args ...any) Result {
	return Result{Name: name, Passed: true, Detail: fmt.Sprintf(format, args...)}
}

func fail(name, format string, args ...any) Result {
	return Result{Name: name, Passed: false, Detail: fmt.Sprintf(format, args...)}
}

// timed runs fn, stamping its wall-clock time into the Result.
func timed(fn func() Result) Result {
	start := time.Now()
	r := fn()
	r.Seconds = time.Since(start).Seconds()
	return r
}

// RunAll executes every invariant and differential check and returns one
// Result per check, in a fixed order. A non-nil error reports a harness
// failure (a simulator constructor rejecting a pinned configuration), not a
// check failure.
func RunAll(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	var out []Result
	for _, fn := range []func(Options) ([]Result, error){
		Inclusion,
		Monotonicity,
		EngineBounds,
		StreamingEquality,
		ParallelVsSerial,
		SweepVsPerConfig,
		FanoutVsPerConfig,
		Figure5VsPerConfig,
		TraceRoundTrip,
		ColumnarReplay,
		SamplingBounds,
		SamplingProperties,
		SeekChecks,
	} {
		rs, err := fn(opt)
		if err != nil {
			return out, err
		}
		out = append(out, rs...)
	}
	return out, nil
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
