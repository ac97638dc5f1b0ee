package check

import (
	"errors"
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

// requireAllPass runs the checks of table whose names match the regular
// expression match, and fails the test on a harness error or a failed check.
func requireAllPass(t *testing.T, opt Options, table []Check, match string) []Result {
	t.Helper()
	opt.Match = match
	rs, err := Run(opt, table)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, r := range rs {
		if !r.Passed {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		} else {
			t.Logf("%s: %s", r.Name, r.Detail)
		}
	}
	return rs
}

func TestInclusion(t *testing.T) {
	requireAllPass(t, testOpt(t), Checks, "^invariant/lru-inclusion-")
}

func TestMonotonicity(t *testing.T) {
	requireAllPass(t, testOpt(t), Checks, "^invariant/miss-monotonic-")
}

func TestEngineBounds(t *testing.T) {
	requireAllPass(t, testOpt(t), Checks, "^invariant/engine-")
}

func TestStreamingEquality(t *testing.T) {
	requireAllPass(t, testOpt(t), Checks, "^invariant/streaming-equality$")
}

// TestInclusionHoldsUltrix sweeps the other OS model too: the invariant is a
// property of the cache model, not of one workload set.
func TestInclusionHoldsUltrix(t *testing.T) {
	if testing.Short() {
		t.Skip("Mach suite covers the model in short mode")
	}
	opt := testOpt(t)
	opt.Workloads = synth.IBSUltrix()[:4]
	requireAllPass(t, opt, Checks, "^invariant/lru-inclusion-")
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
	err := runInclusion("belady", refs, chain)
	var f *failure
	if !errors.As(err, &f) {
		t.Fatalf("runInclusion = %v, want the violation on Bélády's FIFO anomaly sequence", err)
	}
	if !strings.Contains(f.detail, "hit but") {
		t.Fatalf("violation detail malformed: %q", f.detail)
	}
	t.Logf("detected as expected: %s", f.detail)
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
	if err := runInclusion("belady", refs, chain); err != nil {
		t.Fatalf("LRU violated inclusion on Bélády's sequence: %v", err)
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("component tests cover the table's checks in short mode")
	}
	if rs := requireAllPass(t, testOpt(t), Checks, ""); len(rs) != 22 {
		t.Errorf("the check table returned %d results, want 22", len(rs))
	}
}
