package check

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ibsim/internal/cache"
	"ibsim/internal/sampling"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
)

// Sampling verification: the sampled execution modes promise calibrated
// uncertainty — "the exact answer lies inside the stated 95% interval" — and
// that promise is checkable, so check it. SamplingBounds runs sampled and
// exact sweeps side by side across the whole suite and scores the intervals;
// SamplingProperties pins the two statistical facts the estimators lean on
// (warm sampling is unbiased, cold-start bias shrinks with window length).

// samplingCells is the cache pair the bounds check scores intervals on: the
// paper's 8KB and 32KB direct-mapped points at the base 32-byte line.
func samplingCells() []sweep.Cell {
	return []sweep.Cell{{Sets: 256, Assoc: 1}, {Sets: 1024, Assoc: 1}}
}

const (
	// samplingSetMod is the bounds check's set-sampling modulus: 1/16 of the
	// sets are simulated.
	samplingSetMod   = 16
	samplingSetMatch = 3
	// samplingWindowDiv sets the time-sampling window to Instructions/256,
	// giving 16 measurement windows at 1/16 coverage (Period = 16·Window).
	samplingWindowDiv = 256
	samplingPeriodMul = 16
	// samplingBoundsAllowance is how many of the per-mode interval scores may
	// miss. At a nominal 95% rate over 16 points the expected miss count is
	// 0.8 and P(X > 3) < 1%; more than 3 misses means the intervals are
	// mis-calibrated, not unlucky.
	samplingBoundsAllowance = 3
	// samplingMeanRelErrMax caps the full grid's suite-mean relative MPI
	// error under 1/16 set sampling as a sanity bound: the dial trades
	// fidelity for speed, but the answers must stay in the right
	// neighborhood. It measures ~14% in practice (per-set miss distributions
	// are skewed and the smallest cells sample a single set); the interval
	// floor below is the real fidelity contract.
	samplingMeanRelErrMax = 0.25
	// samplingCIHitFraction is the minimum fraction of the grid's cells
	// whose exact MPI must land inside the sampled 95% interval. Nominal
	// calibration is 95%; the floor sits at 90% so the check flags
	// mis-calibration, not one unlucky cell.
	samplingCIHitFraction = 0.9
)

// samplingGrid is the full capacity x associativity grid the set-sampling
// floors are scored on: 1KB-64KB at a 32-byte line, 1/2/4-way, every cell
// with at least samplingSetMod sets (8 distinct set counts, 16-2048).
func samplingGrid() []sweep.Cell {
	var cells []sweep.Cell
	for size := 1 << 10; size <= 64<<10; size <<= 1 {
		lines := size / 32
		for _, assoc := range []int{1, 2, 4} {
			if sets := lines / assoc; sets >= samplingSetMod {
				cells = append(cells, sweep.Cell{Sets: sets, Assoc: assoc})
			}
		}
	}
	return cells
}

// SamplingBounds runs sampled sweeps (set sampling at 1/16, warm time
// sampling at 1/16 coverage) against the exact sweep on every workload and
// both cache sizes, and fails a mode whose 95% intervals miss the exact MPI
// more often than the nominal rate allows. The set mode is also scored over
// the full 1KB-64KB grid: its suite-mean relative error must stay within
// samplingMeanRelErrMax and its intervals must cover the exact MPI at no
// fewer than samplingCIHitFraction of the cells.
func SamplingBounds(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	cells := samplingCells()
	window := opt.Instructions / samplingWindowDiv
	if window < 64 {
		window = 64
	}
	type modeScore struct {
		name    string
		hits    int
		points  int
		sumRel  float64
		nRel    int
		worst   string
		worstEr float64
	}
	scores := []*modeScore{
		{name: "sampling/bounds-set"},
		{name: "sampling/bounds-time-warm"},
	}
	grid := samplingGrid()
	var gridHits, gridPoints, gridNRel int
	var gridSumRel float64
	for _, p := range opt.Workloads {
		refs, runs, release, err := synth.DefaultStore.InstrRuns(context.Background(), p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: sampling bounds: %s: %w", p.Name, err)
		}
		exact, err := sweep.Pass{LineSize: 32, Cells: cells}.Run(refs)
		if err != nil {
			release()
			return nil, fmt.Errorf("check: sampling bounds: exact sweep %s: %w", p.Name, err)
		}
		sampled := make([]*sweep.SampledMatrix, 2)
		sampled[0], err = sweep.SampledPass{
			LineSize: 32, Cells: cells, SetMod: samplingSetMod, SetMatch: samplingSetMatch,
		}.Run(runs)
		if err == nil {
			sampled[1], err = sweep.SampledPass{
				LineSize: 32, Cells: cells, Window: window, Period: samplingPeriodMul * window, Warm: true,
			}.Run(runs)
		}
		var gridExact *sweep.Matrix
		var gridSampled *sweep.SampledMatrix
		if err == nil {
			gridExact, err = sweep.Pass{LineSize: 32, Cells: grid}.Run(refs)
		}
		if err == nil {
			gridSampled, err = sweep.SampledPass{
				LineSize: 32, Cells: grid, SetMod: samplingSetMod, SetMatch: samplingSetMatch,
			}.Run(runs)
		}
		release()
		if err != nil {
			return nil, fmt.Errorf("check: sampling bounds: sampled sweep %s: %w", p.Name, err)
		}
		for ci := range grid {
			exactMPI := float64(gridExact.Misses[ci]) / float64(gridExact.Accesses)
			est := gridSampled.Estimates[ci]
			gridPoints++
			if est.Contains(exactMPI) {
				gridHits++
			}
			if exactMPI > 0 {
				gridSumRel += math.Abs(est.MPI-exactMPI) / exactMPI
				gridNRel++
			}
		}
		for mi, sm := range sampled {
			sc := scores[mi]
			for ci := range cells {
				exactMPI := float64(exact.Misses[ci]) / float64(exact.Accesses)
				est := sm.Estimates[ci]
				sc.points++
				if est.Contains(exactMPI) {
					sc.hits++
				}
				if exactMPI > 0 {
					rel := math.Abs(est.MPI-exactMPI) / exactMPI
					sc.sumRel += rel
					sc.nRel++
					if rel > sc.worstEr {
						sc.worstEr = rel
						sc.worst = fmt.Sprintf("%s/%dKB", p.Name, cells[ci].Size(32)/1024)
					}
				}
			}
		}
	}
	// The two modes share one set of exact sweeps, so the wall-clock is
	// split evenly between their Results.
	perMode := time.Since(start).Seconds() / float64(len(scores))
	gridMeanRel := 0.0
	if gridNRel > 0 {
		gridMeanRel = gridSumRel / float64(gridNRel)
	}
	gridFloor := int(math.Ceil(samplingCIHitFraction * float64(gridPoints)))
	var out []Result
	for mi, sc := range scores {
		meanRel := 0.0
		if sc.nRel > 0 {
			meanRel = sc.sumRel / float64(sc.nRel)
		}
		misses := sc.points - sc.hits
		detail := fmt.Sprintf("exact MPI inside CI95 at %d/%d points (allowance %d), mean |rel err| %.2f%%, worst %.2f%% (%s)",
			sc.hits, sc.points, samplingBoundsAllowance, 100*meanRel, 100*sc.worstEr, sc.worst)
		ok := misses <= samplingBoundsAllowance
		if mi == 0 {
			detail += fmt.Sprintf("; 1-64KB grid: CI hits %d/%d (floor %d), mean |rel err| %.2f%% (cap %.0f%%)",
				gridHits, gridPoints, gridFloor, 100*gridMeanRel, 100*samplingMeanRelErrMax)
			ok = ok && gridHits >= gridFloor && gridMeanRel <= samplingMeanRelErrMax
		}
		r := pass(sc.name, "%s", detail)
		if !ok {
			r = fail(sc.name, "%s", detail)
		}
		r.Seconds = perMode
		out = append(out, r)
	}
	return out, nil
}

// SamplingProperties pins the statistical behavior of the warm/cold sampling
// regimes on the reference single-cache path (internal/sampling.Run):
//
//   - Warm unbiasedness: as coverage rises toward 1 the estimate converges to
//     the exact miss ratio, reaching it exactly at full coverage.
//   - Cold-start bias: cold sampling overestimates, and the bias shrinks as
//     the window grows at fixed coverage (fewer cold starts per measured
//     instruction).
func SamplingProperties(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
	workloads := opt.Workloads
	if len(workloads) > 3 {
		workloads = workloads[:3]
	}
	baseWindow := opt.Instructions / samplingWindowDiv
	if baseWindow < 64 {
		baseWindow = 64
	}

	// Warm convergence ladder: 1/16 -> 1/4 -> 1 coverage.
	warmStart := time.Now()
	ladder := []int64{16, 4, 1}
	meanAbs := make([]float64, len(ladder))
	for _, p := range workloads {
		refs, release, err := synth.DefaultStore.Instr(p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: sampling properties: %s: %w", p.Name, err)
		}
		for li, mul := range ladder {
			plan := sampling.Plan{Window: baseWindow, Period: mul * baseWindow, Mode: sampling.Warm}
			_, _, relErr, err := sampling.Error(cfg, refs, plan)
			if err != nil {
				if errors.Is(err, sampling.ErrZeroBaseline) {
					continue
				}
				release()
				return nil, fmt.Errorf("check: sampling properties: %s: %w", p.Name, err)
			}
			meanAbs[li] += math.Abs(relErr) / float64(len(workloads))
		}
		release()
	}
	var out []Result
	const convergenceSlack = 0.02
	// The absolute accuracy pin only holds at the pinned scale and above —
	// at toy scales a 1/16-coverage sample is a few thousand instructions
	// and its variance swamps any fixed cap. Convergence and full-coverage
	// exactness are the scale-free properties.
	atScale := opt.Instructions >= PinnedInstructions
	switch {
	case meanAbs[len(ladder)-1] != 0:
		out = append(out, fail("sampling/warm-unbiased",
			"full-coverage warm sampling should be exact, mean |rel err| %.4f", meanAbs[len(ladder)-1]))
	case meanAbs[1] > meanAbs[0]+convergenceSlack:
		out = append(out, fail("sampling/warm-unbiased",
			"error grew with coverage: %.2f%% at 1/16 -> %.2f%% at 1/4", 100*meanAbs[0], 100*meanAbs[1]))
	case atScale && meanAbs[0] > 0.15:
		out = append(out, fail("sampling/warm-unbiased",
			"warm 1/16-coverage mean |rel err| %.2f%% exceeds 15%%", 100*meanAbs[0]))
	default:
		out = append(out, pass("sampling/warm-unbiased",
			"mean |rel err| %.2f%% (1/16) -> %.2f%% (1/4) -> %.4f%% (full)",
			100*meanAbs[0], 100*meanAbs[1], 100*meanAbs[2]))
	}
	out[len(out)-1].Seconds = time.Since(warmStart).Seconds()

	// Cold-start bias: coverage fixed at 1/4, window swept x16.
	coldStart := time.Now()
	windows := []int64{baseWindow, 4 * baseWindow, 16 * baseWindow}
	bias := make([]float64, len(windows))
	for _, p := range workloads {
		refs, release, err := synth.DefaultStore.Instr(p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: sampling properties: %s: %w", p.Name, err)
		}
		for wi, w := range windows {
			plan := sampling.Plan{Window: w, Period: 4 * w, Mode: sampling.Cold}
			_, _, relErr, err := sampling.Error(cfg, refs, plan)
			if err != nil {
				if errors.Is(err, sampling.ErrZeroBaseline) {
					continue
				}
				release()
				return nil, fmt.Errorf("check: sampling properties: %s: %w", p.Name, err)
			}
			bias[wi] += relErr / float64(len(workloads))
		}
		release()
	}
	const biasSlack = 0.02
	switch {
	case bias[0] < -biasSlack:
		out = append(out, fail("sampling/cold-bias",
			"cold sampling should overestimate, mean bias %.2f%% at window %d", 100*bias[0], windows[0]))
	case bias[len(windows)-1] > bias[0]+biasSlack:
		out = append(out, fail("sampling/cold-bias",
			"cold bias grew with window: %.2f%% at %d -> %.2f%% at %d",
			100*bias[0], windows[0], 100*bias[len(windows)-1], windows[len(windows)-1]))
	default:
		out = append(out, pass("sampling/cold-bias",
			"mean bias %.2f%% (w=%d) -> %.2f%% (w=%d) -> %.2f%% (w=%d)",
			100*bias[0], windows[0], 100*bias[1], windows[1], 100*bias[2], windows[2]))
	}
	out[len(out)-1].Seconds = time.Since(coldStart).Seconds()
	return out, nil
}
