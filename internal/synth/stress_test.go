package synth

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ibsim/internal/trace"
)

// checkStoreInvariants asserts the store's internal accounting under its
// own mutex: no entry's refcount is negative, idleBytes is non-negative
// and equals the summed entryBytes of exactly the idle (refcount 0)
// entries.
func checkStoreInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var idle int64
	for key, e := range s.entries {
		if e.refcount < 0 {
			t.Errorf("entry %v: negative refcount %d", key.n, e.refcount)
		}
		select {
		case <-e.ready:
		default:
			continue // still generating: not yet accounted
		}
		if e.refcount == 0 && e.err == nil {
			idle += entryBytes(e)
		}
	}
	if s.idleBytes < 0 {
		t.Errorf("idleBytes = %d, negative", s.idleBytes)
	}
	if s.idleBytes != idle {
		t.Errorf("idleBytes = %d, but idle entries sum to %d", s.idleBytes, idle)
	}
	if s.idleBytes > s.idleBudget {
		t.Errorf("idleBytes = %d exceeds budget %d after eviction", s.idleBytes, s.idleBudget)
	}
}

// TestStoreStressInvariants hammers one store from many goroutines mixing
// every acquisition path — Instr, InstrRuns, InstrCtx (some cancelled),
// Source, RunsOnly (at two lengths per profile, so prefix resume races the
// eviction of its source entry; pre-cancelled; over budget), over-budget
// rejections, double releases — and asserts, under -race, that every
// compaction is bit-identical to trace.Compact, that the ref-count and
// idle-byte bookkeeping never goes negative and fully drains at the end, and
// that failed compactions leave no entry behind.
func TestStoreStressInvariants(t *testing.T) {
	profs := IBSMach()[:3]
	// Budget sized so entries churn: a few traces fit idle, most evict.
	const n = 2_000
	store := NewStoreLimits(3*TraceBytes(n, true), TraceBytes(4*n, true))
	// A length whose run compaction alone exceeds the hard budget: RunsOnly
	// generates until the growing runs cross it, about 100k instructions.
	const overLen = 200_000

	// The RunsOnly oracle: trace.Compact of the reference stream, for every
	// length the workers ask for (each size and its double).
	wantRuns := make([]map[int64][]trace.Run, len(profs))
	for pi, prof := range profs {
		refs, err := InstrTrace(prof, 1, 2*(n+4*500))
		if err != nil {
			t.Fatal(err)
		}
		wantRuns[pi] = map[int64][]trace.Run{}
		for k := int64(0); k < 5; k++ {
			for _, l := range []int64{n + k*500, 2 * (n + k*500)} {
				wantRuns[pi][l] = trace.Compact(refs[:l])
			}
		}
	}
	checkRuns := func(pi int, size int64) {
		runs, release, err := store.RunsOnly(context.Background(), profs[pi], 1, size)
		if err != nil {
			t.Errorf("RunsOnly(%d): %v", size, err)
			return
		}
		defer release()
		want := wantRuns[pi][size]
		if len(runs) != len(want) {
			t.Errorf("RunsOnly(%d): %d runs, trace.Compact %d", size, len(runs), len(want))
			return
		}
		for j := range runs {
			if runs[j] != want[j] {
				t.Errorf("RunsOnly(%d): run %d = %+v, want %+v", size, j, runs[j], want[j])
				return
			}
		}
	}

	const goroutines = 12
	const iters = 150
	var overCalls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pi := (g + i) % len(profs)
				prof := profs[pi]
				size := int64(n + (g+i)%5*500) // several distinct keys per profile
				switch (g + i) % 8 {
				case 0:
					refs, release, err := store.Instr(prof, 1, size)
					if err != nil {
						t.Errorf("Instr: %v", err)
						return
					}
					if int64(len(refs)) != size {
						t.Errorf("Instr returned %d refs, want %d", len(refs), size)
					}
					release()
					release() // double release must be a no-op
				case 1:
					refs, runs, release, err := store.InstrRuns(context.Background(), prof, 1, size)
					if err != nil {
						t.Errorf("InstrRuns: %v", err)
						return
					}
					if len(runs) == 0 || int64(len(refs)) != size {
						t.Errorf("InstrRuns returned %d refs / %d runs", len(refs), len(runs))
					}
					release()
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					if (g+i)%2 == 0 {
						cancel() // cancelled before the call: must not leak a refcount
					}
					refs, release, err := store.InstrCtx(ctx, prof, 1, size)
					if err == nil {
						if int64(len(refs)) != size {
							t.Errorf("InstrCtx returned %d refs, want %d", len(refs), size)
						}
						release()
					} else if !errors.Is(err, context.Canceled) {
						t.Errorf("InstrCtx: %v", err)
					}
					cancel()
				case 3:
					src, release, err := store.Source(prof, 1, size)
					if err != nil {
						t.Errorf("Source: %v", err)
						return
					}
					for j := 0; j < 64; j++ { // partial drain, then walk away
						if _, ok := src.Next(); !ok {
							break
						}
					}
					release()
				case 4:
					// Over the hard budget: typed rejection, no residue.
					_, _, err := store.Instr(prof, 1, 64_000)
					if !errors.Is(err, ErrOverBudget) {
						t.Errorf("oversized Instr = %v, want ErrOverBudget", err)
					}
				case 5:
					// The short compaction goes idle, where other workers may
					// evict it while the long one resumes from it.
					checkRuns(pi, size)
					checkRuns(pi, 2*size)
				case 6:
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, _, err := store.RunsOnly(ctx, prof, 1, size); !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled RunsOnly = %v, want context.Canceled", err)
					}
				case 7:
					if overCalls.Add(1) > 16 { // each generates ~100k instructions
						checkRuns(pi, size)
						break
					}
					// Over the hard budget mid-compaction: typed rejection.
					_, _, err := store.RunsOnly(context.Background(), prof, 1, overLen)
					if !errors.Is(err, ErrOverBudget) {
						t.Errorf("oversized RunsOnly = %v, want ErrOverBudget", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	checkStoreInvariants(t, store)

	// Every handle was released: nothing in the store is still referenced,
	// and re-running the accounting from scratch agrees. No failed
	// compaction left an entry behind.
	store.mu.Lock()
	for key, e := range store.entries {
		if e.refcount != 0 {
			t.Errorf("entry n=%d: refcount %d after full drain, want 0", key.n, e.refcount)
		}
		if key.n == overLen || e.err != nil {
			t.Errorf("entry n=%d (runsOnly %v): failed generation left in the store: %v", key.n, key.runsOnly, e.err)
		}
	}
	store.mu.Unlock()

	if st := store.Stats(); st.Hits+st.Misses == 0 {
		t.Error("stress run recorded no store activity")
	}
}

// TestStoreStressEvictionChurn drives the idle cache through heavy
// eviction churn (budget fits ~1 entry) while checking invariants at
// barriers between waves.
func TestStoreStressEvictionChurn(t *testing.T) {
	prof := IBSMach()[0]
	const n = 1_000
	store := NewStore(TraceBytes(n, false) + 1) // roughly one idle trace

	for wave := 0; wave < 8; wave++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				size := int64(n + 100*g) // 8 distinct keys fighting for one slot
				refs, release, err := store.Instr(prof, uint64(wave), size)
				if err != nil {
					t.Errorf("wave %d: %v", wave, err)
					return
				}
				if int64(len(refs)) != size {
					t.Errorf("wave %d: %d refs, want %d", wave, len(refs), size)
				}
				release()
			}(g)
		}
		wg.Wait()
		checkStoreInvariants(t, store)
	}
	if st := store.Stats(); st.Evictions == 0 {
		t.Error("churn run evicted nothing; budget not exercised")
	}
}
