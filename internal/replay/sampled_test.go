package replay

import (
	"context"
	"errors"
	"math"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
)

// A full-coverage warm time plan measures everything: Measured must equal
// the exact fan-out bit for bit across the whole mixed bank, with CI 0.
func TestSampledFullCoverageEqualsReplay(t *testing.T) {
	refs := testTrace(11, 60000)
	runs := trace.Compact(refs)
	exact, err := Replay(context.Background(), runs, bank(t))
	if err != nil {
		t.Fatal(err)
	}
	plan := SamplePlan{Window: 5000, Period: 5000, Warm: true}
	got, err := Sampled(context.Background(), runs, bank(t), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if got[i].Measured != exact[i] {
			t.Errorf("engine %d: sampled %+v != exact %+v", i, got[i].Measured, exact[i])
		}
		est := got[i].Estimate
		if est.CI95 != 0 || est.Coverage != 1 {
			t.Errorf("engine %d: full-coverage estimate has CI %v coverage %v", i, est.CI95, est.Coverage)
		}
		if want := exact[i].MPI(); math.Abs(est.MPI-want) > 1e-12 {
			t.Errorf("engine %d: MPI %v, want %v", i, est.MPI, want)
		}
	}
}

// Warm time sampling at 1/4 coverage tracks the exact MPI and CPI closely
// and reports honest coverage and cluster counts.
func TestSampledTimeWarmTracksExact(t *testing.T) {
	refs := testTrace(5, 200000)
	runs := trace.Compact(refs)
	exact, err := Replay(context.Background(), runs, bank(t))
	if err != nil {
		t.Fatal(err)
	}
	plan := SamplePlan{Window: 2000, Period: 8000, Warm: true}
	got, err := Sampled(context.Background(), runs, bank(t), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		est := got[i].Estimate
		if c := est.Coverage; math.Abs(c-0.25) > 0.01 {
			t.Fatalf("engine %d: coverage %v, want ~0.25", i, c)
		}
		if est.Clusters < 10 {
			t.Fatalf("engine %d: only %d window clusters", i, est.Clusters)
		}
		exactMPI := exact[i].MPI()
		if d := math.Abs(est.MPI - exactMPI); exactMPI > 0 && d > 0.15*exactMPI {
			t.Errorf("engine %d (%T): sampled MPI %v off exact %v by %.1f%%",
				i, bank(t)[i], est.MPI, exactMPI, 100*d/exactMPI)
		}
		exactCPI := exact[i].CPIinstr()
		if d := math.Abs(got[i].Measured.CPIinstr() - exactCPI); d > 0.15*exactCPI {
			t.Errorf("engine %d: sampled CPI %v off exact %v", i, got[i].Measured.CPIinstr(), exactCPI)
		}
	}
}

// An engine outside every content class whose FetchRuns issues single
// fetches must match a bulk engine of the same geometry under the same plan.
func TestSampledNonBulkEngine(t *testing.T) {
	refs := testTrace(9, 50000)
	runs := trace.Compact(refs)
	cfg := cache.Config{Size: 8192, LineSize: 16, Assoc: 2}
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	a, _ := fetch.NewBlocking(cfg, link, 0)
	b, _ := fetch.NewBlocking(cfg, link, 0)
	plan := SamplePlan{Window: 1000, Period: 4000, Warm: true}
	got, err := Sampled(context.Background(), runs, []fetch.Engine{&plainEngine{inner: a}, b}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Measured != got[1].Measured {
		t.Fatalf("plain %+v != bulk %+v", got[0].Measured, got[1].Measured)
	}
}

func TestSamplePlanValidation(t *testing.T) {
	for _, p := range []SamplePlan{
		{},                         // no window
		{Period: 400},              // period without window
		{Window: 400, Period: 100}, // window > period
		{Window: -1, Period: 400},  // negative window
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid plan %+v accepted", p)
		}
	}
	for _, p := range []SamplePlan{
		{Window: 100, Period: 400, Warm: true},
		{Window: 400, Period: 400},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %+v rejected: %v", p, err)
		}
	}
}

func TestSampledCancellation(t *testing.T) {
	refs := testTrace(13, 100000)
	runs := trace.Compact(refs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, plan := range []SamplePlan{
		{Window: 1000, Period: 4000, Warm: true},
		{Window: 1000, Period: 4000},
	} {
		if _, err := Sampled(ctx, runs, bank(t), plan); !errors.Is(err, context.Canceled) {
			t.Errorf("plan %+v: err = %v, want context.Canceled", plan, err)
		}
	}
}
