package synth

import (
	"context"
	"errors"
	"os"
	"testing"

	"ibsim/internal/trace"
)

// collectColumnar decodes every block of the file into one run slice.
func collectColumnar(t *testing.T, cf *trace.ColumnarFile) []trace.Run {
	t.Helper()
	var all, blk []trace.Run
	var err error
	for i := 0; i < cf.NumBlocks(); i++ {
		if blk, err = cf.BlockRuns(i, blk); err != nil {
			t.Fatalf("BlockRuns(%d): %v", i, err)
		}
		all = append(all, blk...)
	}
	return all
}

// The columnar tier must hold exactly the runs RunsOnly materializes — the
// incremental spill compaction and trace.Compact agree run for run — and be
// memoized like every other tier.
func TestStoreColumnarMatchesRunsOnly(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	t.Cleanup(s.Purge)
	ctx := context.Background()
	want, relRuns, err := s.RunsOnly(ctx, p, 3, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	defer relRuns()

	cf, release, err := s.Columnar(ctx, p, 3, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	got := collectColumnar(t, cf)
	if len(got) != len(want) {
		t.Fatalf("columnar holds %d runs, RunsOnly %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("run %d: columnar %+v != RunsOnly %+v", i, got[i], want[i])
		}
	}

	// Second acquire shares the entry (a Hit, same opened file).
	cf2, release2, err := s.Columnar(ctx, p, 3, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if cf2 != cf {
		t.Fatal("second acquire did not return the memoized file")
	}
	st := s.Stats()
	if st.Spills != 1 {
		t.Fatalf("spills = %d, want 1", st.Spills)
	}
	if st.SpillBytes != cf.Size() {
		t.Fatalf("spill bytes %d, want file size %d", st.SpillBytes, cf.Size())
	}
	release()
	release2()
}

// The columnar file is dramatically smaller than the in-memory run slice: a
// hard budget sized between the two rejects RunsOnly with ErrOverBudget but
// admits Columnar — the degradation rung the service's columnar-disk tier
// stands on.
func TestStoreColumnarAdmitsWhatRunsReject(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe := NewStore(DefaultIdleBudget)
	runs, relProbe, err := probe.RunsOnly(ctx, p, 7, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	runBudget := int64(len(runs)) * runBytes
	relProbe()

	s := NewStoreLimits(DefaultIdleBudget, runBudget/4)
	t.Cleanup(s.Purge)
	if _, _, err := s.RunsOnly(ctx, p, 7, 150_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("RunsOnly under quarter budget: err = %v, want ErrOverBudget", err)
	}
	cf, release, err := s.Columnar(ctx, p, 7, 150_000)
	if err != nil {
		t.Fatalf("Columnar under quarter budget: %v", err)
	}
	if cf.Size() >= runBudget/4 {
		t.Fatalf("columnar file %d bytes is not under the %d budget", cf.Size(), runBudget/4)
	}
	release()

	// And an impossible budget still fails typed.
	tiny := NewStoreLimits(DefaultIdleBudget, 64)
	t.Cleanup(tiny.Purge)
	if _, _, err := tiny.Columnar(ctx, p, 7, 150_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Columnar under 64-byte budget: err = %v, want ErrOverBudget", err)
	}
}

// Eviction and Purge must delete the backing file from disk.
func TestStoreColumnarEvictionDeletesFile(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := NewStore(0) // idle budget 0: release evicts immediately
	t.Cleanup(s.Purge)
	_, release, err := s.Columnar(ctx, p, 11, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	path := s.entries[storeKeyColumnar(p, 11, 50_000)].path
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("backing file missing while referenced: %v", err)
	}
	release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("backing file survived eviction: %v", err)
	}

	// Purge drops idle entries and the spill directory.
	s2 := NewStore(DefaultIdleBudget)
	_, release2, err := s2.Columnar(ctx, p, 11, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	dir := s2.dir
	release2()
	s2.Purge()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survived purge: %v", err)
	}
	if got := s2.Stats().Entries; got != 0 {
		t.Fatalf("%d entries survived purge", got)
	}
}

// storeKeyColumnar builds the columnar key the way Columnar does.
func storeKeyColumnar(p Profile, seed uint64, n int64) storeKey {
	k := storeKey{prof: p, seed: seed, n: n, kind: kindColumnar}
	k.prof.Data = DataProfile{}
	return k
}

// Stats reads every entry's spill size while Columnar fills entries on
// other goroutines, as ibsimd's /metrics does while requests spill. Under
// -race the two must never touch an entry unsynchronized.
func TestStoreStatsConcurrentWithSpills(t *testing.T) {
	p, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0) // every release evicts, deleting the file
	defer s.Purge()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
			}
		}
	}()
	ctx := context.Background()
	const spills = 200
	for seed := uint64(0); seed < spills; seed++ {
		_, release, err := s.Columnar(ctx, p, seed, 2_000)
		if err != nil {
			t.Error(err)
			break
		}
		release()
	}
	close(stop)
	<-done
	if st := s.Stats(); st.Spills != spills || st.SpillBytes != 0 {
		t.Errorf("stats after %d released spills = %+v, want %d spills and no bytes on disk", spills, st, spills)
	}
}

// A spill doomed by the hard budget fails as soon as its encoding crosses
// it, counting the block the columnar writer still holds open and the write
// buffer: gcc's 1M instructions encode into a single open block, which
// nothing reaches the file before, yet a 1-KiB budget must stop generation
// at its first budget check, before the checkpoint index records a restore
// point at instruction 16,384.
func TestStoreColumnarDoomedSpillFailsEarly(t *testing.T) {
	p, err := Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreLimits(DefaultIdleBudget, 1<<10)
	if err := s.SetSpillDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Columnar(context.Background(), p, 0, 1_000_000); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Columnar under a 1-KiB budget = %v, want ErrOverBudget", err)
	}
	if st := s.Stats(); st.Checkpoints != 0 || st.Entries != 0 {
		t.Fatalf("doomed spill generated past instruction %d (%d checkpoints) or left %d entries",
			DefaultCheckpointEvery, st.Checkpoints, st.Entries)
	}
}
