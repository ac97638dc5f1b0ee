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
// every acquisition path — the InstrCtx (some cancelled) and InstrRuns
// adapters, Acquire, RunsOnly (at two lengths per profile, so prefix resume
// races the eviction of its source entry; pre-cancelled; over budget),
// over-budget rejections, double releases — and asserts, under -race, that
// every compaction is bit-identical to trace.Compact, that the ref-count and
// idle-byte bookkeeping never goes negative and fully drains at the end, and
// that failed compactions leave no entry behind.
func TestStoreStressInvariants(t *testing.T) {
	profs := IBSMach()[:3]
	const n = 2_000
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
	// Idle budget sized so entries churn: a few traces' runs fit idle, most
	// evict.
	var largest int64
	for _, byLen := range wantRuns {
		for _, runs := range byLen {
			largest = max(largest, int64(len(runs))*runBytes)
		}
	}
	store := NewStoreLimits(3*largest, TraceBytes(4*n, true))
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
					src, _, release, err := store.Acquire(context.Background(), prof, 1, size)
					if err != nil {
						t.Errorf("Acquire: %v", err)
						return
					}
					if got := src.Total(); got != size {
						t.Errorf("Acquire read %d instructions, want %d", got, size)
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
					src, tier, release, err := store.Acquire(context.Background(), prof, 1, size)
					if err != nil {
						t.Errorf("Acquire: %v", err)
						return
					}
					if tier != TierRuns {
						t.Errorf("Acquire served the %v tier, want runs", tier)
					}
					// A partial read, then walk away.
					if err := src.ReadRuns(size/2, 64, func([]trace.Run) error { return nil }); err != nil {
						t.Errorf("Acquire ReadRuns: %v", err)
					}
					release()
				case 4:
					if overCalls.Add(1) > 24 { // each generates ~100k instructions
						checkRuns(pi, size)
						break
					}
					// Over the hard budget through the adapter: typed
					// rejection, no residue.
					_, _, err := store.InstrCtx(context.Background(), prof, 1, overLen)
					if !errors.Is(err, ErrOverBudget) {
						t.Errorf("oversized InstrCtx = %v, want ErrOverBudget", err)
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
					if overCalls.Add(1) > 24 { // each generates ~100k instructions
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
			t.Errorf("entry n=%d (kind %d): failed generation left in the store: %v", key.n, key.kind, e.err)
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
	store := NewStore(2 * runsBytes(t, prof, 0, n)) // roughly two idle traces

	for wave := 0; wave < 8; wave++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				size := int64(n + 100*g) // 8 distinct keys fighting for about two slots
				runs, release, err := store.RunsOnly(context.Background(), prof, uint64(wave), size)
				if err != nil {
					t.Errorf("wave %d: %v", wave, err)
					return
				}
				if got := trace.SummarizeRuns(runs).Instructions; got != size {
					t.Errorf("wave %d: %d instructions, want %d", wave, got, size)
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
