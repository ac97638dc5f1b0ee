package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// A worker panic must surface as a typed *WorkerError naming the workload —
// on the parallel path and on the serial reference path alike — and must not
// crash the process.
func TestWorkerPanicIsolated(t *testing.T) {
	profiles := ibsProfiles()
	victim := profiles[1].Name
	for _, opt := range []Options{{Instructions: 1000}, {Instructions: 1000, Serial: true}} {
		_, err := mapRuns(profiles, opt.withDefaults(), func(_ context.Context, p synth.Profile, src trace.RunReader) (int64, error) {
			if p.Name == victim {
				panic("boom")
			}
			return src.Total(), nil
		})
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("serial=%v: err = %v, want *WorkerError", opt.Serial, err)
		}
		if we.Workload != victim {
			t.Fatalf("panic attributed to %q, want %q", we.Workload, victim)
		}
		if we.Recovered != "boom" || !strings.Contains(we.Stack, "resilience_test") {
			t.Fatalf("WorkerError missing payload or stack: %+v", we)
		}
	}
	if err := PanicIsolationSelfTest(Options{Instructions: 1000}); err == nil {
		t.Fatal("PanicIsolationSelfTest reported no error")
	} else {
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("self-test err = %v, want *WorkerError", err)
		}
	}
}

// The first real failure must win over the cancellations it causes, and must
// stop siblings from starting fresh work. The first worker to start fails
// and every other worker waits for the cancellation, so no timing decides
// the outcome: mapOrdered cancels before the failing worker frees its slot,
// so at most the workers already holding one of the 4 slots ever start.
func TestFirstErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("workload exploded")
	const n, workers = 64, 4
	var started atomic.Int32
	_, err := mapOrdered(context.Background(), n, workers,
		func(i int) string { return "w" },
		func(ctx context.Context, i int) (int, error) {
			if started.Add(1) == 1 {
				return 0, boom
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure, not a cancellation", err)
	}
	if got := started.Load(); got > workers {
		t.Fatalf("%d workers started after the first failed; at most %d hold a slot", got, workers)
	}
}

// A cancelled caller context stops mapRuns and mapRefs with the context
// error.
func TestMapTracesHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Instructions: 1000, Context: ctx}
	_, err := mapRuns(ibsProfiles(), opt.withDefaults(), func(_ context.Context, p synth.Profile, src trace.RunReader) (int64, error) {
		return src.Total(), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := mapRefs(ibsProfiles(), opt.withDefaults(), func(p synth.Profile, refs []trace.Ref) (int, error) {
		return len(refs), nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mapRefs err = %v, want context.Canceled", err)
	}
}

// Exhibits run to identical output with and without a generous deadline —
// the cancellation plumbing must not perturb results.
func TestContextPlumbingPreservesOutput(t *testing.T) {
	opt := Options{Instructions: 20000}
	plain, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	withCtx, err := Table4(Options{Instructions: 20000, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Render() != withCtx.Render() {
		t.Fatal("context-carrying run rendered different output")
	}
}

// With a deadline far shorter than one DECstation 3100 row, Tables 1 and 3
// return context.DeadlineExceeded long before that row would finish: the
// rows check the context every decstationCheckEvery instructions rather
// than only between workloads.
func TestDECstationDeadlineStopsWithinRow(t *testing.T) {
	if testing.Short() {
		t.Skip("times full DECstation rows")
	}
	opt := Options{Instructions: 2_000_000, Workers: 2}.withDefaults()
	// The fastest warm run of a SPEC and an IBS row sets the scale.
	row := time.Duration(math.MaxInt64)
	for _, p := range []synth.Profile{synth.SPECSuites()[2], synth.IBSMach()[0]} {
		for i := 0; i < 2; i++ {
			start := time.Now()
			if _, err := DECstationRow(context.Background(), p, opt.Seed, opt.Instructions); err != nil {
				t.Fatal(err)
			}
			row = min(row, time.Since(start))
		}
	}
	for _, ex := range []struct {
		name string
		run  func(Options) error
	}{
		{"table1", func(o Options) error { _, err := Table1(o); return err }},
		{"table3", func(o Options) error { _, err := Table3(o); return err }},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), row/20)
		o := opt
		o.Context = ctx
		start := time.Now()
		err := ex.run(o)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", ex.name, err)
		}
		t.Logf("%s: one row %v, %v deadline returned after %v", ex.name, row, row/20, took)
		if took > row/2 {
			t.Fatalf("%s: returned after %v with a %v deadline; one row takes about %v", ex.name, took, row/20, row)
		}
	}
}
