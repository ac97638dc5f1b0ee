package sampling

import (
	"math"
	"strings"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

var cfg8k = cache.Config{Size: 8192, LineSize: 32, Assoc: 1}

func gsTrace(t testing.TB, n int64) []trace.Ref {
	t.Helper()
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// reader serves refs' instruction fetches as runs.
func reader(refs []trace.Ref) trace.RunReader { return trace.NewRunReader(trace.Compact(refs)) }

// refRun is the per-reference oracle for Run: every instruction fetch is
// one Access, and its position modulo the period decides whether it opens a
// period (cold mode resets there), falls inside the window, or is a gap
// that is accessed but not counted.
func refRun(cfg cache.Config, refs []trace.Ref, plan Plan) Result {
	c := cache.MustNew(cfg)
	var res Result
	var missesBefore int64
	pos := int64(0)
	inWindow := false
	for _, r := range refs {
		if r.Kind != trace.IFetch {
			continue
		}
		phase := pos % plan.Period
		pos++
		res.TotalInstructions++
		measuring := phase < plan.Window
		if phase == 0 {
			// Flush any window still open (the normal case when Window ==
			// Period) before the reset, which clears the miss counter the
			// open window's snapshot refers to.
			if inWindow {
				res.SampledMisses += c.Stats().Misses - missesBefore
				inWindow = false
			}
			if plan.Mode == Cold {
				c.Reset()
			}
		}
		if measuring && !inWindow {
			missesBefore = c.Stats().Misses
			inWindow = true
		}
		if !measuring && inWindow {
			res.SampledMisses += c.Stats().Misses - missesBefore
			inWindow = false
		}
		c.Access(r.Addr)
		if measuring {
			res.SampledInstructions++
		}
	}
	if inWindow {
		res.SampledMisses += c.Stats().Misses - missesBefore
	}
	return res
}

// Run over runs must reproduce the per-reference oracle bit for bit under
// warm and cold plans: gaps, full coverage, a period that does not divide
// the trace (a clipped trailing window), and one-instruction windows.
func TestRunMatchesReferenceLoop(t *testing.T) {
	refs := gsTrace(t, 60_001)
	src := reader(refs)
	for _, sched := range []Schedule{
		{Window: 2_000, Period: 8_000},
		{Window: 5_000, Period: 5_000},
		{Window: 1, Period: 1},
		{Window: 6_000, Period: 7_000},
		{Window: 1, Period: 997},
		{Window: 100_000, Period: 200_000},
	} {
		for _, mode := range []Mode{Warm, Cold} {
			plan := Plan{Window: sched.Window, Period: sched.Period, Mode: mode}
			got, err := Run(cfg8k, src, plan)
			if err != nil {
				t.Fatal(err)
			}
			if want := refRun(cfg8k, refs, plan); got != want {
				t.Errorf("%+v: Run %+v, oracle %+v", plan, got, want)
			}
		}
	}
}

func TestPlanValidation(t *testing.T) {
	if err := (Plan{Window: 0, Period: 10}).Validate(); err == nil {
		t.Error("zero window accepted")
	}
	if err := (Plan{Window: 10, Period: 5}).Validate(); err == nil {
		t.Error("period < window accepted")
	}
	if err := (Plan{Window: 5, Period: 5}).Validate(); err != nil {
		t.Errorf("full-coverage plan rejected: %v", err)
	}
	if _, err := Run(cfg8k, nil, Plan{}); err == nil {
		t.Error("Run accepted invalid plan")
	}
	if _, err := Run(cache.Config{Size: 7}, nil, Plan{Window: 1, Period: 1}); err == nil {
		t.Error("Run accepted invalid cache")
	}
}

func TestModeString(t *testing.T) {
	if Warm.String() != "warm" || Cold.String() != "cold" {
		t.Error("mode names")
	}
	if !strings.HasPrefix(Mode(7).String(), "Mode(") {
		t.Error("unknown mode name")
	}
}

func TestFullCoverageMatchesDirectSimulation(t *testing.T) {
	refs := gsTrace(t, 100_000)
	res, err := Run(cfg8k, reader(refs), Plan{Window: 1, Period: 1, Mode: Warm})
	if err != nil {
		t.Fatal(err)
	}
	c := cache.MustNew(cfg8k)
	for _, r := range refs {
		c.Access(r.Addr)
	}
	st := c.Stats()
	if res.SampledInstructions != st.Accesses || res.SampledMisses != st.Misses {
		t.Fatalf("full-coverage sampling (%d/%d) != direct (%d/%d)",
			res.SampledMisses, res.SampledInstructions, st.Misses, st.Accesses)
	}
	if res.Coverage() != 1 {
		t.Fatalf("coverage = %v", res.Coverage())
	}
}

func TestWarmSamplingUnbiased(t *testing.T) {
	src := reader(gsTrace(t, 400_000))
	// 40 windows at 50% coverage: enough samples that phase correlation
	// with the workload's domain schedule averages out.
	sampled, full, relErr, err := Error(cfg8k, src, Plan{Window: 5_000, Period: 10_000, Mode: Warm})
	if err != nil {
		t.Fatal(err)
	}
	// The paper validated its own (stall-distorted) trace methodology to a
	// 5% margin; warm sampling at 50% coverage should match that.
	if math.Abs(relErr) > 0.05 {
		t.Fatalf("warm sampling error %.1f%% (sampled %.4f vs full %.4f)",
			100*relErr, sampled, full)
	}
}

func TestColdSamplingBiasedUpward(t *testing.T) {
	src := reader(gsTrace(t, 400_000))
	_, _, warmErr, err := Error(cfg8k, src, Plan{Window: 5_000, Period: 20_000, Mode: Warm})
	if err != nil {
		t.Fatal(err)
	}
	coldSampled, full, coldErr, err := Error(cfg8k, src, Plan{Window: 5_000, Period: 20_000, Mode: Cold})
	if err != nil {
		t.Fatal(err)
	}
	if coldErr <= 0 {
		t.Fatalf("cold sampling not biased upward: err %.1f%% (sampled %.4f vs full %.4f)",
			100*coldErr, coldSampled, full)
	}
	if coldErr <= warmErr {
		t.Fatalf("cold error (%.3f) not above warm error (%.3f)", coldErr, warmErr)
	}
}

func TestColdBiasShrinksWithWindow(t *testing.T) {
	src := reader(gsTrace(t, 400_000))
	_, _, small, err := Error(cfg8k, src, Plan{Window: 2_000, Period: 8_000, Mode: Cold})
	if err != nil {
		t.Fatal(err)
	}
	_, _, large, err := Error(cfg8k, src, Plan{Window: 50_000, Period: 200_000, Mode: Cold})
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("cold bias did not shrink with window: %.3f (2k) vs %.3f (50k)", small, large)
	}
}

func TestCoverage(t *testing.T) {
	res, err := Run(cfg8k, reader(gsTrace(t, 100_000)), Plan{Window: 1_000, Period: 10_000, Mode: Warm})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coverage()-0.1) > 0.001 {
		t.Fatalf("coverage = %v, want ~0.1", res.Coverage())
	}
}

// Data references never reach Run: compaction keeps instruction fetches only.
func TestDataRefsIgnored(t *testing.T) {
	refs := []trace.Ref{
		{Addr: 0, Kind: trace.IFetch},
		{Addr: 4096, Kind: trace.DRead},
		{Addr: 4, Kind: trace.IFetch},
	}
	res, err := Run(cfg8k, reader(refs), Plan{Window: 1, Period: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInstructions != 2 {
		t.Fatalf("counted %d instructions", res.TotalInstructions)
	}
}

func TestEmptyResult(t *testing.T) {
	var r Result
	if r.MPI() != 0 || r.Coverage() != 0 {
		t.Fatal("empty result ratios non-zero")
	}
}

func TestColdFullCoverageCountsAllMisses(t *testing.T) {
	// Regression: with Window == Period in cold mode, the per-period reset
	// must not discard the open window's accumulated misses.
	refs := gsTrace(t, 100_000)
	res, err := Run(cfg8k, reader(refs), Plan{Window: 10_000, Period: 10_000, Mode: Cold})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: simulate with explicit resets every 10k instructions.
	c := cache.MustNew(cfg8k)
	var misses, n int64
	for _, r := range refs {
		if r.Kind != trace.IFetch {
			continue
		}
		if n%10_000 == 0 {
			c.Reset()
		}
		n++
		if !c.Access(r.Addr) {
			misses++
		}
	}
	if res.SampledMisses != misses {
		t.Fatalf("cold full-coverage sampled %d misses, ground truth %d", res.SampledMisses, misses)
	}
	if res.SampledInstructions != n {
		t.Fatalf("sampled %d instructions, want %d", res.SampledInstructions, n)
	}
}
