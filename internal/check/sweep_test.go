package check

import "testing"

func TestSweepVsPerConfig(t *testing.T) {
	opt := testOpt(t)
	if testing.Short() {
		opt.Instructions = 20_000
	}
	requireAllPass(t, opt, Checks, "^differential/sweep-")
}

// TestSweepVsPerConfigSeeds re-runs the randomized miss-matrix property under
// shifted generation seeds, so the bit-identity claim is not an artifact of
// the calibrated seed set.
func TestSweepVsPerConfigSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long")
	}
	for _, seed := range []uint64{1, 42} {
		opt := testOpt(t)
		opt.Instructions = 30_000
		opt.Seed = seed
		requireAllPass(t, opt, Checks, "^differential/sweep-")
	}
}
