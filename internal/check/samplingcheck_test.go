package check

import (
	"context"
	"testing"
	"time"

	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// The sampling calibration checks — the interval scores and the full-grid
// accuracy and CI-hit floors — must pass at a reduced scale.
func TestSamplingChecks(t *testing.T) {
	opt := Options{Instructions: 60_000}
	for _, fn := range []struct {
		name string
		run  func(Options) ([]Result, error)
	}{
		{"bounds", SamplingBounds},
		{"properties", SamplingProperties},
	} {
		rs, err := fn.run(opt)
		if err != nil {
			t.Fatalf("%s: harness failure: %v", fn.name, err)
		}
		for _, r := range rs {
			if !r.Passed {
				t.Errorf("%s: %s failed: %s", fn.name, r.Name, r.Detail)
			}
		}
	}
}

// The 1/16 set-sampled sweep of the full 1KB-64KB grid must measure a small
// fraction of the suite and run at least twice as fast as the exact sweep of
// the same grid (each path timed as the minimum of two interleaved runs over
// a warmed store); its accuracy and interval floors are scored by
// SamplingBounds above.
func TestSamplingBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench timing in -short mode")
	}
	opt := Options{Instructions: 60_000}.withDefaults()
	cells := samplingGrid()
	var refs [][]trace.Ref
	var runs [][]trace.Run
	for _, p := range opt.Workloads {
		rs, release, err := synth.DefaultStore.RunsOnly(context.Background(), p, opt.Seed, opt.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		refs, runs = append(refs, trace.Expand(rs)), append(runs, rs)
	}
	var exact, sampled time.Duration
	var coverage float64
	for i := 0; i < 2; i++ {
		start := time.Now()
		for _, r := range refs {
			if _, err := (sweep.Pass{LineSize: 32, Cells: cells}).Run(r); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start); i == 0 || d < exact {
			exact = d
		}
		coverage = 0
		start = time.Now()
		for _, rs := range runs {
			sm, err := sweep.SampledPass{
				LineSize: 32, Cells: cells, SetMod: samplingSetMod, SetMatch: samplingSetMatch,
			}.Run(rs)
			if err != nil {
				t.Fatal(err)
			}
			coverage += sm.Coverage() / float64(len(runs))
		}
		if d := time.Since(start); i == 0 || d < sampled {
			sampled = d
		}
	}
	speedup := exact.Seconds() / sampled.Seconds()
	t.Logf("%.1fx speedup (%v -> %v) at %.1f%% coverage", speedup, exact, sampled, 100*coverage)
	if speedup < 2 {
		t.Errorf("sampled sweep only %.1fx faster than exact (%v -> %v)", speedup, exact, sampled)
	}
	if coverage <= 0 || coverage > 0.2 {
		t.Errorf("coverage %v outside (0, 0.2]", coverage)
	}
}
