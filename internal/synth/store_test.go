package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"ibsim/internal/trace"
)

// TestMain runs the package's tests with the temp dir pointed at a private
// directory, and fails the run if a store's spill directory is left in it:
// a test that opens a spill must purge its store.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "synth-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	if left, _ := filepath.Glob(filepath.Join(dir, "ibsim-store-*")); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d store spill directories left in the temp dir: %v\n", len(left), left)
		code = 1
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestStoreMemoizesAndMatchesInstrTrace(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	want, err := InstrTrace(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runs, release, err := s.RunsOnly(ctx, p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if refs := trace.Expand(runs); !slices.Equal(refs, want) {
		t.Fatalf("store runs expand to %d refs that differ from InstrTrace's %d", len(refs), len(want))
	}
	again, release2, err := s.RunsOnly(ctx, p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &runs[0] {
		t.Fatal("second acquire did not return the memoized slice")
	}
	release()
	release2()
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.IdleBytes != int64(len(runs))*runBytes {
		t.Fatalf("idle bytes %d, want %d", st.IdleBytes, int64(len(runs))*runBytes)
	}
	// A released entry must still be served from cache.
	_, release3, err := s.RunsOnly(ctx, p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	release3()
	if got := s.Stats().Hits; got != 2 {
		t.Fatalf("hits after re-acquire = %d, want 2", got)
	}
}

func TestStoreDistinguishesKeys(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	q, err := Lookup("sdet")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	for _, k := range []struct {
		prof Profile
		seed uint64
		n    int64
	}{{p, 0, 1000}, {p, 1, 1000}, {p, 0, 2000}, {q, 0, 1000}} {
		_, release, err := s.RunsOnly(context.Background(), k.prof, k.seed, k.n)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	st := s.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 distinct generations", st)
	}
}

// runsBytes is what the store charges for the runs of (p, seed, n).
func runsBytes(t *testing.T, p Profile, seed uint64, n int64) int64 {
	t.Helper()
	refs, err := InstrTrace(p, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(trace.Compact(refs))) * runBytes
}

func TestStoreEvictsIdleBeyondBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Budget fits either 1000-instruction trace's runs but not both.
	s := NewStore(runsBytes(t, p, 1, 1000) + runsBytes(t, p, 2, 1000) - 1)
	_, r1, err := s.RunsOnly(ctx, p, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r1()
	_, r2, err := s.RunsOnly(ctx, p, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2() // seed-1 entry is older → evicted
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 eviction leaving 1 entry", st)
	}
	// Held entries are never evicted, no matter the budget.
	tiny := NewStore(0)
	runs, hold, err := tiny.RunsOnly(ctx, p, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.SummarizeRuns(runs).Instructions; got != 1000 {
		t.Fatalf("got %d instructions", got)
	}
	if tiny.Stats().Entries != 1 {
		t.Fatal("held entry missing from store")
	}
	hold()
	if tiny.Stats().Entries != 0 {
		t.Fatal("zero-budget store kept a released entry")
	}
	// Double release is a no-op.
	hold()
}

func TestStoreHardBudgetRejectsMaterialization(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The budget is exactly the 1000-instruction trace's runs.
	s := NewStoreLimits(DefaultIdleBudget, runsBytes(t, p, 0, 1000))
	if _, _, err := s.RunsOnly(ctx, p, 0, 2000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("RunsOnly over budget = %v, want ErrOverBudget", err)
	}
	// At or under the budget still materializes.
	runs, release, err := s.RunsOnly(ctx, p, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.SummarizeRuns(runs).Instructions; got != 1000 {
		t.Fatalf("got %d instructions", got)
	}
	release()
}

// readAll expands every run a reader holds back into its fetch stream.
func readAll(t *testing.T, src trace.RunReader) []trace.Ref {
	t.Helper()
	var refs []trace.Ref
	err := src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		for _, r := range runs {
			refs = r.AppendRefs(refs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// A trace no form of which fits the hard budget is still served: Acquire
// falls back to streaming regeneration, holding no store entry, and
// yields exactly InstrTrace's refs. A trace whose runs fit is memoized.
func TestStoreSourceFallsBackToStreaming(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	want, err := InstrTrace(p, 7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 512)
	t.Cleanup(s.Purge)
	ctx := context.Background()
	if _, _, err := s.RunsOnly(ctx, p, 7, 3000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("RunsOnly over budget = %v, want ErrOverBudget", err)
	}
	src, tier, release, err := s.Acquire(ctx, p, 7, 3000)
	if err != nil {
		t.Fatalf("Acquire over budget should stream, got %v", err)
	}
	if tier != TierSeek {
		t.Fatalf("Acquire over budget served the %v tier, want seek", tier)
	}
	got := readAll(t, src)
	release()
	if len(got) != len(want) {
		t.Fatalf("streamed %d refs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d: streamed %v != InstrTrace %v", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Entries != 0 || st.SpillBytes != 0 {
		t.Fatalf("streaming fallback left %d store entries, %d spill bytes", st.Entries, st.SpillBytes)
	}
	misses := st.Misses

	// Within budget, Acquire serves the memoized runs: one generation,
	// then a hit.
	for i := 0; i < 2; i++ {
		src, tier, release, err := s.Acquire(ctx, p, 7, 100)
		if err != nil {
			t.Fatal(err)
		}
		if tier != TierRuns {
			t.Fatalf("in-budget Acquire served the %v tier, want runs", tier)
		}
		if got := readAll(t, src); len(got) != 100 {
			t.Fatalf("in-budget Acquire read %d refs, want 100", len(got))
		}
		release()
	}
	if st := s.Stats(); st.Misses != misses+1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want in-budget Acquire memoized (%d misses, 1 hit)", st, misses+1)
	}
}

func TestStoreInstrCtxCancellation(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)

	// Already-cancelled context fails fast without generating anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.InstrCtx(ctx, p, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled InstrCtx = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cancelled acquire touched the store: %+v", st)
	}

	// A waiter abandoning an in-flight generation must not corrupt the
	// entry for the generating caller or later acquires.
	gate := make(chan struct{})
	started := make(chan struct{})
	var genErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		refs, release, err := s.InstrCtx(context.Background(), p, 9, 200000)
		genErr = err
		if err == nil {
			if len(refs) != 200000 {
				genErr = errors.New("generator got short trace")
			}
			release()
		}
		close(gate)
	}()
	<-started
	wctx, wcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer wcancel()
	_, _, werr := s.InstrCtx(wctx, p, 9, 200000)
	// Either the generation finished inside the deadline (fine) or the
	// waiter bailed with the context error.
	if werr != nil && !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("abandoning waiter = %v", werr)
	}
	<-gate
	wg.Wait()
	if genErr != nil {
		t.Fatalf("generating caller failed: %v", genErr)
	}
	// The entry must still be intact and servable.
	refs, release, err := s.InstrCtx(context.Background(), p, 9, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 200000 {
		t.Fatalf("post-abandon acquire got %d refs", len(refs))
	}
	release()
}

func TestStoreConcurrentAcquireSharesOneGeneration(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	const goroutines = 8
	var wg sync.WaitGroup
	firsts := make([]*trace.Run, goroutines)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			runs, release, err := s.RunsOnly(context.Background(), p, 0, 20000)
			if err != nil {
				t.Error(err)
				return
			}
			firsts[i] = &runs[0]
			release()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if firsts[i] != firsts[0] {
			t.Fatalf("goroutine %d got a different backing array", i)
		}
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 generation", st)
	}
}

// The InstrRuns adapter expands the memoized runs into a fresh slice for
// each caller; the store retains and shares the runs only.
func TestStoreInstrRuns(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	ctx := context.Background()
	refs, runs, release, err := s.InstrRuns(ctx, p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := InstrTrace(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(refs, want) {
		t.Fatal("InstrRuns refs differ from InstrTrace")
	}
	if !slices.Equal(runs, trace.Compact(refs)) {
		t.Fatal("InstrRuns runs differ from trace.Compact of its refs")
	}
	// A second acquire shares the memoized runs but expands its own refs.
	refs2, runs2, release2, err := s.InstrRuns(ctx, p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &runs2[0] != &runs[0] {
		t.Fatal("second InstrRuns did not return the memoized runs")
	}
	if &refs2[0] == &refs[0] {
		t.Fatal("second InstrRuns shared the first caller's refs")
	}
	// RunsOnly on the same key shares the entry too.
	runs3, release3, err := s.RunsOnly(ctx, p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &runs3[0] != &runs[0] {
		t.Fatal("RunsOnly after InstrRuns did not share the entry")
	}
	release()
	release2()
	release3()
	// The idle accounting covers the runs alone: no refs are retained.
	if got, want := s.Stats(), int64(len(runs))*runBytes; got.IdleBytes != want || got.Entries != 1 {
		t.Fatalf("stats %+v, want one entry of %d idle bytes (runs only)", got, want)
	}
}

// The hard budget charges the runs the store retains, not the refs the
// adapter hands out: a budget below the refs but above the runs admits
// InstrRuns, and one below the runs rejects it.
func TestStoreInstrRunsHardBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rb := runsBytes(t, p, 0, 5000)
	if rb >= 5000*refBytes/2 {
		t.Fatalf("gs runs %d bytes: not well under its refs", rb)
	}
	s := NewStoreLimits(DefaultIdleBudget, 5000*refBytes/2)
	refs, _, release, err := s.InstrRuns(ctx, p, 0, 5000)
	if err != nil {
		t.Fatalf("InstrRuns within the runs budget failed: %v", err)
	}
	if len(refs) != 5000 {
		t.Fatalf("got %d refs", len(refs))
	}
	release()
	tight := NewStoreLimits(DefaultIdleBudget, rb-runBytes)
	if _, _, _, err := tight.InstrRuns(ctx, p, 0, 5000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
}

func TestStoreInstrRunsConcurrent(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	const workers = 8
	got := make([][]trace.Run, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, runs, release, err := s.InstrRuns(context.Background(), p, 3, 4000)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = runs
			release()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(got[w]) == 0 || &got[w][0] != &got[0][0] {
			t.Fatalf("worker %d got a different runs slice", w)
		}
	}
}

func TestStoreRunsOnlyMatchesCompact(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	runs, release, err := s.RunsOnly(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := InstrTrace(p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Compact(refs)
	if len(runs) != len(want) {
		t.Fatalf("RunsOnly has %d runs, trace.Compact %d", len(runs), len(want))
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("run %d: %+v != %+v", i, runs[i], want[i])
		}
	}
	// Second acquire shares the memoized slice.
	runs2, release2, err := s.RunsOnly(context.Background(), p, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if &runs2[0] != &runs[0] {
		t.Fatal("second RunsOnly did not share the entry")
	}
	release()
	release2()
	if got, want := s.Stats().IdleBytes, int64(len(runs))*runBytes; got != want {
		t.Fatalf("idle bytes %d, want %d (runs only, no refs)", got, want)
	}
}

func TestStoreRunsOnlyFitsWhereRefsDoNot(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	// Budget far below the refs footprint but comfortably above the actual
	// compaction (sequential fetch compacts ~7x; runBytes is 1.5x refBytes).
	const budget = n * refBytes / 2
	s := NewStoreLimits(DefaultIdleBudget, budget)
	runs, release, err := s.RunsOnly(context.Background(), p, 0, n)
	if err != nil {
		t.Fatalf("RunsOnly under the budget failed: %v", err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs")
	}
	release()
	// The adapter's refs exceed the budget, but only the runs are retained.
	refs, release, err := s.InstrCtx(context.Background(), p, 0, n)
	if err != nil {
		t.Fatalf("InstrCtx under the budget failed: %v", err)
	}
	if int64(len(refs))*refBytes <= budget {
		t.Fatalf("%d refs fit the %d-byte budget; the test needs them not to", len(refs), budget)
	}
	release()
	if st := s.Stats(); st.Entries != 1 || st.IdleBytes != int64(len(runs))*runBytes {
		t.Fatalf("stats %+v, want the one runs entry of %d bytes", st, int64(len(runs))*runBytes)
	}
}

func TestStoreRunsOnlyOverBudget(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 10*runBytes)
	if _, _, err := s.RunsOnly(context.Background(), p, 0, 50_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	// The failed entry must not linger.
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("failed RunsOnly left %d entries", st.Entries)
	}
}

func TestStoreRunsOnlyCancellation(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.RunsOnly(ctx, p, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Acquire serves the cheapest tier the hard budget admits, and every tier
// reads the one trace: whole-trace and windowed reads hold exactly the
// runs trace.Compact makes of InstrTrace's refs over the same range. A
// cancelled context takes no entry, and release then Purge leaves the
// spill directory empty.
func TestStoreAcquireTiers(t *testing.T) {
	p, err := Lookup("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	refs, err := InstrTrace(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	// eqntott at 100k: refs 1.6 MB, runs about 210 KB, columnar file tens
	// of KB.
	cases := []struct {
		name   string
		budget int64
		want   Tier
	}{
		{"unlimited", 0, TierRuns},
		{"512KiB", 512 << 10, TierRuns},
		{"128KiB", 128 << 10, TierColumnar},
		{"1KiB", 1 << 10, TierSeek},
	}
	windows := []struct{ pos, n int64 }{
		{0, math.MaxInt64}, {0, 1}, {12_345, 4_096}, {n - 10, 100}, {50_000, 0}, {40_000, 30_000}, {n, 10},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStoreLimits(DefaultIdleBudget, tc.budget)
			dir := t.TempDir()
			if err := s.SetSpillDir(dir); err != nil {
				t.Fatal(err)
			}
			src, tier, release, err := s.Acquire(ctx, p, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if tier != tc.want {
				t.Errorf("tier = %v, want %v", tier, tc.want)
			}
			if got := src.Total(); got != n {
				t.Errorf("Total = %d, want %d", got, n)
			}
			for _, w := range windows {
				var got []trace.Run
				err := src.ReadRuns(w.pos, w.n, func(runs []trace.Run) error {
					got = append(got, runs...)
					return nil
				})
				if err != nil {
					t.Fatalf("ReadRuns(%d, %d): %v", w.pos, w.n, err)
				}
				end := int64(n)
				if w.n < n-w.pos {
					end = w.pos + w.n
				}
				want := trace.Compact(refs[min(w.pos, n):end])
				if !slices.Equal(trace.Compact(trace.Expand(got)), want) {
					t.Errorf("ReadRuns(%d, %d) holds other runs than trace.Compact of the same refs", w.pos, w.n)
				}
			}

			before := s.Stats()
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, _, _, err := s.Acquire(cctx, p, 0, n); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled Acquire = %v, want context.Canceled", err)
			}
			if after := s.Stats(); after != before {
				t.Errorf("cancelled Acquire changed the store: %+v, was %+v", after, before)
			}

			release()
			s.mu.Lock()
			for k, e := range s.entries {
				if e.refcount != 0 {
					t.Errorf("entry kind %d n=%d still held after release", k.kind, k.n)
				}
			}
			s.mu.Unlock()
			s.Purge()
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Errorf("spill dir after release and Purge holds %d files (err %v)", len(left), err)
			}
			if st := s.Stats(); st.Entries != 0 || st.SpillBytes != 0 {
				t.Errorf("Purge left %d entries, %d spill bytes", st.Entries, st.SpillBytes)
			}
		})
	}
}

// BenchmarkStoreRunsOnlyFill times a cold RunsOnly of 1M gcc instructions on
// a fresh store: the generate-and-compact work behind the set-up of both
// benchmark workloads.
func BenchmarkStoreRunsOnlyFill(b *testing.B) {
	prof, err := Lookup("gcc")
	if err != nil {
		b.Fatal(err)
	}
	const n = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, release, err := NewStore(0).RunsOnly(context.Background(), prof, 0, n)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
