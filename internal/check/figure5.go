package check

import (
	"ibsim/internal/experiments"
)

// Figure5VsPerConfig verifies the physically-indexed line-event kernel
// against the trusted per-reference path: Figure 5's points from the default
// path (page translation once per page, one Touch per line event over the
// memoized run-compacted trace) must equal, field by field, those of the
// Options.PerConfig path (one Translate and one Access per reference). It
// compares points rather than renders because Render prints only each
// point's StdDev, to four decimals, so a MeanCPI drift would pass. Two trials
// bound the per-reference path's cost.
func Figure5VsPerConfig(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	var harnessErr error
	r := timed(func() Result {
		const name = "differential/figure5-physical"
		fastOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed, Trials: 2}
		refOpt := fastOpt
		refOpt.PerConfig = true
		fast, err := experiments.Figure5(fastOpt)
		if err != nil {
			harnessErr = err
			return fail(name, "line-event path: %v", err)
		}
		ref, err := experiments.Figure5(refOpt)
		if err != nil {
			harnessErr = err
			return fail(name, "per-reference path: %v", err)
		}
		if len(fast.Points) != len(ref.Points) {
			return fail(name, "%d points, per-reference %d", len(fast.Points), len(ref.Points))
		}
		for i, p := range fast.Points {
			q := ref.Points[i]
			switch {
			case p.Workload != q.Workload || p.SizeKB != q.SizeKB || p.Assoc != q.Assoc:
				return fail(name, "point %d is %s %dKB %d-way, per-reference %s %dKB %d-way",
					i, p.Workload, p.SizeKB, p.Assoc, q.Workload, q.SizeKB, q.Assoc)
			case p.MeanCPI != q.MeanCPI:
				return fail(name, "%s %dKB %d-way: MeanCPI %v, per-reference %v",
					p.Workload, p.SizeKB, p.Assoc, p.MeanCPI, q.MeanCPI)
			case p.StdDev != q.StdDev:
				return fail(name, "%s %dKB %d-way: StdDev %v, per-reference %v",
					p.Workload, p.SizeKB, p.Assoc, p.StdDev, q.StdDev)
			}
		}
		return pass(name, "Figure 5 line-event points == per-reference points (%d points x %d trials)",
			len(fast.Points), fastOpt.Trials)
	})
	return []Result{r}, harnessErr
}
