package check

// PinnedInstructions is the per-workload instruction budget the committed
// goldens were measured at. Runs at any other scale (or a non-zero seed)
// still time every stage but skip value comparison.
const PinnedInstructions = 200_000

// defaultRelTol is the golden tolerance when a Golden leaves RelTol zero.
// The simulators are deterministic, so 1e-9 flags any behavioral change
// while absorbing floating-point reassociation from refactors.
const defaultRelTol = 1e-9

// goldens pins the bench stages' expected suite-mean values at
// PinnedInstructions with seed 0 (the calibrated profile seeds).
//
// Provenance: measured by `go run ./cmd/ibscheck -n 200000 -print-golden`
// on the commit that introduced each value; EXPERIMENTS.md documents the
// regeneration workflow. Update these ONLY when a PR deliberately changes
// simulator behavior, and say so in the PR description.
var goldens = map[string]Golden{
	"cache/base-l1":   {CPI: 0, MPI: 0.04838},
	"fetch/blocking":  {CPI: 0.33866, MPI: 0.04838},
	"fetch/prefetch3": {CPI: 0.219318125, MPI: 0.016870625},
	"fetch/bypass3":   {CPI: 0.111716875, MPI: 0.016870625},
	"fetch/stream6":   {CPI: 0.09537124999999999, MPI: 0.013551875},
	"system/gs":       {CPI: 1.531565, MPI: 0},
}
