package check

import (
	"strings"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// testOpt keeps in-test verification fast; the CLI runs the pinned scale.
func testOpt(t *testing.T) Options {
	t.Helper()
	opt := Options{Instructions: 50_000}
	if testing.Short() {
		opt.Workloads = synth.IBSMach()[:3]
	}
	return opt
}

// requireAllPass fails the test on any failed result.
func requireAllPass(t *testing.T, rs []Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if len(rs) == 0 {
		t.Fatal("no results returned")
	}
	for _, r := range rs {
		if !r.Passed {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		} else {
			t.Logf("%s: %s", r.Name, r.Detail)
		}
	}
}

func TestInclusion(t *testing.T) {
	rs, err := Inclusion(testOpt(t))
	requireAllPass(t, rs, err)
}

func TestMonotonicity(t *testing.T) {
	rs, err := Monotonicity(testOpt(t))
	requireAllPass(t, rs, err)
}

func TestEngineBounds(t *testing.T) {
	rs, err := EngineBounds(testOpt(t))
	requireAllPass(t, rs, err)
}

func TestStreamingEquality(t *testing.T) {
	rs, err := StreamingEquality(testOpt(t))
	requireAllPass(t, rs, err)
}

// TestInclusionHoldsUltrix sweeps the other OS model too: the invariant is a
// property of the cache model, not of one workload set.
func TestInclusionHoldsUltrix(t *testing.T) {
	if testing.Short() {
		t.Skip("Mach suite covers the model in short mode")
	}
	opt := testOpt(t)
	opt.Workloads = synth.IBSUltrix()[:4]
	rs, err := Inclusion(opt)
	requireAllPass(t, rs, err)
}

// TestInclusionDetectsFIFOAnomaly proves the checker has teeth: FIFO
// replacement is not a stack algorithm, and Bélády's classic sequence makes
// a 4-line FIFO cache miss where the 3-line one hits. runInclusion must
// report that violation.
func TestInclusionDetectsFIFOAnomaly(t *testing.T) {
	pages := []uint64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
	refs := make([]trace.Ref, len(pages))
	for i, p := range pages {
		refs[i] = trace.Ref{Addr: p * 32, Kind: trace.IFetch}
	}
	chain := []cache.Config{
		{Size: 3 * 32, LineSize: 32, Replacement: cache.FIFO},
		{Size: 4 * 32, LineSize: 32, Replacement: cache.FIFO},
	}
	res, ok, err := runInclusion("test/fifo-anomaly", "belady", refs, chain)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if ok {
		t.Fatal("runInclusion reported no violation on Bélády's FIFO anomaly sequence")
	}
	if !strings.Contains(res.Detail, "hit but") {
		t.Fatalf("violation detail malformed: %q", res.Detail)
	}
	t.Logf("detected as expected: %s", res.Detail)
}

// TestLRUInclusionOnBeladySequence is the converse control: the same
// sequence through LRU caches must satisfy inclusion (LRU is a stack
// algorithm).
func TestLRUInclusionOnBeladySequence(t *testing.T) {
	pages := []uint64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
	refs := make([]trace.Ref, len(pages))
	for i, p := range pages {
		refs[i] = trace.Ref{Addr: p * 32, Kind: trace.IFetch}
	}
	chain := []cache.Config{
		{Size: 3 * 32, LineSize: 32},
		{Size: 4 * 32, LineSize: 32},
	}
	res, ok, err := runInclusion("test/lru-belady", "belady", refs, chain)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if !ok {
		t.Fatalf("LRU violated inclusion on Bélády's sequence: %s", res.Detail)
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("component tests cover RunAll's pieces in short mode")
	}
	opt := testOpt(t)
	rs, err := RunAll(opt)
	requireAllPass(t, rs, err)
	if len(rs) != 22 {
		t.Errorf("RunAll returned %d results, want 22", len(rs))
	}
}
