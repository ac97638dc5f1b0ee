package check

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"ibsim/internal/cache"
	"ibsim/internal/experiments"
	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Stage is one timed benchmark-regression stage.
type Stage struct {
	// Name identifies the stage, e.g. "fetch/stream6".
	Name string `json:"name"`
	// Seconds is the stage's wall-clock time.
	Seconds float64 `json:"seconds"`
	// CPI is the stage's suite-mean CPIinstr (0 when not applicable).
	CPI float64 `json:"cpi,omitempty"`
	// MPI is the stage's suite-mean misses per instruction (0 when not
	// applicable).
	MPI float64 `json:"mpi,omitempty"`
	// Passed reports whether the stage's values landed within golden
	// tolerance (always true for untracked stages and off-golden scales).
	Passed bool `json:"passed"`
	// Detail explains the verdict: values vs goldens, or why no comparison
	// was made.
	Detail string `json:"detail,omitempty"`
}

// Report is the machine-readable output cmd/ibscheck writes to
// BENCH_ibsim.json: the perf trajectory of the simulators, one record per
// run.
type Report struct {
	// Schema versions the JSON layout.
	Schema string `json:"schema"`
	// Instructions and Seed echo the run's scale.
	Instructions int64  `json:"instructions"`
	Seed         uint64 `json:"seed"`
	// GoldenScale reports whether the run matched the pinned scale the
	// committed goldens were measured at (Instructions ==
	// PinnedInstructions, Seed == 0), enabling value comparison.
	GoldenScale bool `json:"golden_scale"`
	// Checks holds the invariant and differential verdicts.
	Checks []Result `json:"checks"`
	// Stages holds the timed benchmark stages.
	Stages []Stage `json:"stages"`
	// Passed is the run's overall verdict.
	Passed bool `json:"passed"`
	// TotalSeconds is the whole run's wall-clock time.
	TotalSeconds float64 `json:"total_seconds"`
}

// stageValues is what one bench stage computes.
type stageValues struct {
	cpi, mpi float64
	tracked  bool // whether the stage has golden values to compare
}

// benchStage pairs a pinned simulation with its runner.
type benchStage struct {
	name string
	run  func(opt Options) (stageValues, error)
}

// benchStages is the pinned stage set, in execution order. Names are stable:
// BENCH_ibsim.json consumers and the goldens key on them.
func benchStages() []benchStage {
	return []benchStage{
		{"generate/ibs-suite", stageGenerate},
		{"cache/base-l1", stageBaseCache},
		{"fetch/blocking", engineStage(func(cfg cache.Config) (fetch.Engine, error) {
			return fetch.NewBlocking(cfg, checkLink(), 0)
		})},
		{"fetch/prefetch3", engineStage(func(cfg cache.Config) (fetch.Engine, error) {
			return fetch.NewBlocking(cfg, checkLink(), 3)
		})},
		{"fetch/bypass3", engineStage(func(cfg cache.Config) (fetch.Engine, error) {
			return fetch.NewBypass(cfg, checkLink(), 3)
		})},
		{"fetch/stream6", engineStage(func(cfg cache.Config) (fetch.Engine, error) {
			return fetch.NewStream(cfg, checkLink(), 6)
		})},
		{"system/gs", stageSystemGS},
		{"trace/codec", stageTraceCodec},
	}
}

// stageGenerate times a cold suite generation and warms the shared trace
// store: every later stage (and any experiment run in the same process)
// acquires these traces instead of regenerating them. The checks that run
// before the stages warm the same store, so the stage purges it first —
// otherwise it would time memo hits. It reports no CPI/MPI.
func stageGenerate(opt Options) (stageValues, error) {
	synth.DefaultStore.Purge()
	for _, p := range opt.Workloads {
		_, _, release, err := synth.DefaultStore.Acquire(context.Background(), p, opt.Seed, opt.Instructions)
		if err != nil {
			return stageValues{}, err
		}
		release()
	}
	return stageValues{}, nil
}

// stageBaseCache reports the suite-mean miss ratio of the paper's base L1:
// one demand access per instruction (cache.AccessRun per run).
func stageBaseCache(opt Options) (stageValues, error) {
	var mean float64
	err := eachTrace(opt, func(_ synth.Profile, src trace.RunReader) error {
		c, err := cache.New(baseL1())
		if err != nil {
			return err
		}
		err = src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
			for _, r := range runs {
				c.AccessRun(r.Start, r.Len, trace.InstrBytes)
			}
			return nil
		})
		mean += c.Stats().MissRatio() / float64(len(opt.Workloads))
		return err
	})
	return stageValues{mpi: mean, tracked: true}, err
}

// engineStage builds a suite-mean CPI/MPI stage for one fetch engine,
// replayed through replay.Run as a bank of one. Its results are
// bit-identical to fetch.Run over the expanded trace (the fanout
// differential pins that), so the committed goldens are unchanged.
func engineStage(mk func(cfg cache.Config) (fetch.Engine, error)) func(opt Options) (stageValues, error) {
	return func(opt Options) (stageValues, error) {
		var v stageValues
		err := eachTrace(opt, func(_ synth.Profile, src trace.RunReader) error {
			e, err := mk(baseL1())
			if err != nil {
				return err
			}
			res, err := replay.Run(context.Background(), src, []fetch.Engine{e}, replay.SamplePlan{})
			if err != nil {
				return err
			}
			v.cpi += res[0].Measured.CPIinstr() / float64(len(opt.Workloads))
			v.mpi += res[0].Measured.MPI() / float64(len(opt.Workloads))
			return nil
		})
		v.tracked = err == nil
		return v, err
	}
}

// stageSystemGS runs the gs workload (with data references) through the
// DECstation 3100 whole-system model; CPI is the total memory CPI.
func stageSystemGS(opt Options) (stageValues, error) {
	p, err := synth.Lookup("gs")
	if err != nil {
		return stageValues{}, err
	}
	row, err := experiments.DECstationRow(context.Background(), p, opt.Seed, opt.Instructions)
	if err != nil {
		return stageValues{}, err
	}
	return stageValues{cpi: row.Components.Total(), tracked: true}, nil
}

// stageTraceCodec times an in-memory encode+decode round trip of a full
// (instructions + data) gs trace; untracked, timing only.
func stageTraceCodec(opt Options) (stageValues, error) {
	p, err := synth.Lookup("gs")
	if err != nil {
		return stageValues{}, err
	}
	refs, err := synth.Trace(p, opt.Seed, opt.Instructions)
	if err != nil {
		return stageValues{}, err
	}
	var buf bytes.Buffer
	if _, err := trace.Encode(&buf, refs); err != nil {
		return stageValues{}, err
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		return stageValues{}, err
	}
	if len(got) != len(refs) {
		return stageValues{}, fmt.Errorf("check: codec stage decoded %d of %d records", len(got), len(refs))
	}
	return stageValues{}, nil
}

// RunBench executes the pinned stage set, timing each and comparing CPI/MPI
// against the committed goldens when the run is at golden scale. A non-nil
// error is a harness failure; regressions are reported in the stages.
func RunBench(opt Options) ([]Stage, error) {
	opt = opt.withDefaults()
	goldenScale := opt.Instructions == PinnedInstructions && opt.Seed == 0
	var out []Stage
	for _, bs := range benchStages() {
		start := time.Now()
		v, err := bs.run(opt)
		if err != nil {
			return out, fmt.Errorf("check: bench stage %s: %w", bs.name, err)
		}
		st := Stage{
			Name:    bs.name,
			Seconds: time.Since(start).Seconds(),
			CPI:     v.cpi,
			MPI:     v.mpi,
			Passed:  true,
		}
		switch {
		case !v.tracked:
			st.Detail = "timing only (untracked)"
		case !goldenScale:
			st.Detail = "off golden scale, values not compared"
		default:
			g, ok := goldens[bs.name]
			if !ok {
				st.Detail = "no golden committed"
				break
			}
			st.Passed, st.Detail = g.compare(v.cpi, v.mpi)
		}
		out = append(out, st)
	}
	return out, nil
}

// Golden is a committed reference value pair with an explicit tolerance.
type Golden struct {
	// CPI and MPI are the expected suite-mean values at the pinned scale.
	CPI float64
	MPI float64
	// RelTol is the allowed relative deviation. The simulators are fully
	// deterministic, so the default is tight; it exists to absorb benign
	// floating-point reassociation in refactors, not behavior changes.
	RelTol float64
}

// compare checks got values against the golden.
func (g Golden) compare(gotCPI, gotMPI float64) (bool, string) {
	tol := g.RelTol
	if tol <= 0 {
		tol = defaultRelTol
	}
	ok := withinRel(gotCPI, g.CPI, tol) && withinRel(gotMPI, g.MPI, tol)
	detail := fmt.Sprintf("cpi %.6f (golden %.6f), mpi %.6f (golden %.6f), tol %.1e",
		gotCPI, g.CPI, gotMPI, g.MPI, tol)
	return ok, detail
}

// withinRel reports |got-want| <= tol * max(|want|, floor).
func withinRel(got, want, tol float64) bool {
	scale := math.Abs(want)
	if scale < 1e-12 {
		scale = 1e-12
	}
	return math.Abs(got-want) <= tol*scale
}

// GoldenLiteral renders the measured stage values as the Go literal to paste
// into golden.go — the documented regeneration path when a PR deliberately
// changes simulator behavior (see EXPERIMENTS.md).
func GoldenLiteral(stages []Stage) string {
	var b bytes.Buffer
	b.WriteString("var goldens = map[string]Golden{\n")
	for _, s := range stages {
		if s.Detail == "timing only (untracked)" {
			continue
		}
		fmt.Fprintf(&b, "\t%q: {CPI: %v, MPI: %v},\n", s.Name, s.CPI, s.MPI)
	}
	b.WriteString("}\n")
	return b.String()
}
