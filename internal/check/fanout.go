package check

import (
	"ibsim/internal/experiments"
)

// fanoutExhibits is the bank-based exhibit set the fan-out replay driver
// accelerates: every table and figure internal/experiments routes through
// mapBanks. Both the differential check and the tables benchmark render
// exactly this set.
func fanoutExhibits() []struct {
	name string
	run  func(experiments.Options) (string, error)
} {
	return []struct {
		name string
		run  func(experiments.Options) (string, error)
	}{
		{"Table5", func(o experiments.Options) (string, error) {
			r, err := experiments.Table5(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table6", func(o experiments.Options) (string, error) {
			r, err := experiments.Table6(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table7", func(o experiments.Options) (string, error) {
			r, err := experiments.Table7(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table8", func(o experiments.Options) (string, error) {
			r, err := experiments.Table8(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figure6", func(o experiments.Options) (string, error) {
			r, err := experiments.Figure6(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figure7", func(o experiments.Options) (string, error) {
			r, err := experiments.Figure7(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
}

// FanoutVsPerConfig verifies the fan-out replay driver against the trusted
// per-configuration path: Tables 5-8 and Figures 6/7 rendered via the
// default path (memoized run-compacted traces fanned out through
// replay.Replay, with bulk FetchRuns and one L1 pass per content class)
// must be byte-identical to the Options.PerConfig reference path (one
// fetch.Run over the expanded trace per engine per workload). This is the
// guarantee that lets the single-pass path replace the per-config one
// everywhere.
func FanoutVsPerConfig(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	var harnessErr error
	var out []Result
	out = append(out, timed(func() Result {
		const name = "differential/fanout-tables"
		fastOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
		refOpt := fastOpt
		refOpt.PerConfig = true
		total := 0
		for _, ex := range fanoutExhibits() {
			fast, err := ex.run(fastOpt)
			if err != nil {
				harnessErr = err
				return fail(name, "%s fan-out path: %v", ex.name, err)
			}
			ref, err := ex.run(refOpt)
			if err != nil {
				harnessErr = err
				return fail(name, "%s per-config path: %v", ex.name, err)
			}
			if fast != ref {
				return fail(name, "%s: fan-out and per-config renders differ", ex.name)
			}
			total += len(fast)
		}
		return pass(name, "Tables 5-8 + Figures 6/7 fan-out renders == per-config renders (%d bytes)", total)
	}))
	return out, harnessErr
}
