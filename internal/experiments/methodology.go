package experiments

import (
	"context"
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/sampling"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Methodology studies: validations of the simplifications the paper's
// experimental method (and ours) rests on.

// ---------------------------------------- Independent-levels approximation

// MethodologyRow is one workload's comparison of the combined two-level
// hierarchy against the paper's independent-levels sum.
type MethodologyRow struct {
	Workload    string
	Combined    float64 // combined hierarchy total CPIinstr
	Independent float64 // L1-with-perfect-L2 + L2-with-memory sum
	RelErr      float64 // (independent - combined) / combined
}

// MethodologyResult validates the paper's decomposition ("We determined the
// L1 contribution by simulating an L1 cache backed by a perfect L2... L2
// contribution is determined by simulating an L2 cache backed by main
// memory") against a combined simulation of the same hierarchy.
type MethodologyResult struct {
	Rows []MethodologyRow
}

// MethodologyValidation runs both methods per IBS workload (economy memory,
// 64-KB 8-way L2).
func MethodologyValidation(opt Options) (*MethodologyResult, error) {
	opt = opt.withDefaults()
	l2cfg := cache.Config{Size: 64 * 1024, LineSize: 64, Assoc: 8}
	mem := memsys.Economy().Memory
	link := memsys.L1L2Link()
	profiles := ibsProfiles()
	per, err := mapBanks(profiles, opt, func() ([]fetch.Engine, error) {
		comb, err := fetch.NewHierarchy(BaseL1(), l2cfg, link, mem)
		if err != nil {
			return nil, err
		}
		l1only, err := fetch.NewBlocking(BaseL1(), link, 0)
		if err != nil {
			return nil, err
		}
		l2only, err := fetch.NewBlocking(l2cfg, mem, 0)
		if err != nil {
			return nil, err
		}
		return []fetch.Engine{comb, l1only, l2only}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &MethodologyResult{}
	for i, p := range profiles {
		combTotal := per[i][0].CPIinstr()
		row := MethodologyRow{Workload: p.Name, Combined: combTotal, Independent: per[i][1].CPIinstr() + per[i][2].CPIinstr()}
		if combTotal != 0 {
			row.RelErr = (row.Independent - combTotal) / combTotal
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the comparison.
func (r *MethodologyResult) Render() string {
	header := []string{"Workload", "Combined CPIinstr", "Independent sum", "Rel. error"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, f3(row.Combined), f3(row.Independent),
			fmt.Sprintf("%+.1f%%", 100*row.RelErr),
		})
	}
	return renderTable("Methodology: independent-levels approximation vs combined hierarchy", header, rows)
}

// ---------------------------------------- Trace sampling

// SamplingRow is one sampling plan's error.
type SamplingRow struct {
	Mode     sampling.Mode
	Window   int64
	Coverage float64
	RelErr   float64
}

// SamplingResult quantifies sampled-simulation error on an IBS workload —
// the methodology question behind the paper's "the two agreed within a 5%
// margin of error" validation of its stall-captured traces, and behind any
// trap-driven tool (Tapeworm) that observes execution in windows.
type SamplingResult struct {
	Workload string
	FullMPI  float64
	Rows     []SamplingRow
}

// SamplingStudy sweeps warm and cold sampling plans on gs, each a read of
// the memoized runs (mapRuns).
func SamplingStudy(opt Options) (*SamplingResult, error) {
	opt = opt.withDefaults()
	p, err := synth.Lookup("gs")
	if err != nil {
		return nil, err
	}
	res, err := mapRuns([]synth.Profile{p}, opt, samplingSweep)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// samplingSweep runs SamplingStudy's plans over p's trace.
func samplingSweep(_ context.Context, p synth.Profile, src trace.RunReader) (*SamplingResult, error) {
	res := &SamplingResult{Workload: p.Name}
	cfg := BaseL1()
	plans := []sampling.Plan{
		{Window: 2_000, Period: 20_000, Mode: sampling.Warm},
		{Window: 10_000, Period: 40_000, Mode: sampling.Warm},
		{Window: 2_000, Period: 20_000, Mode: sampling.Cold},
		{Window: 10_000, Period: 40_000, Mode: sampling.Cold},
		{Window: 50_000, Period: 200_000, Mode: sampling.Cold},
	}
	for _, plan := range plans {
		sampled, err := sampling.Run(cfg, src, plan)
		if err != nil {
			return nil, err
		}
		if res.FullMPI == 0 {
			full, err := sampling.Run(cfg, src, sampling.Plan{Window: 1, Period: 1})
			if err != nil {
				return nil, err
			}
			res.FullMPI = full.MPI()
		}
		relErr := 0.0
		if res.FullMPI != 0 {
			relErr = (sampled.MPI() - res.FullMPI) / res.FullMPI
		}
		res.Rows = append(res.Rows, SamplingRow{
			Mode: plan.Mode, Window: plan.Window,
			Coverage: sampled.Coverage(), RelErr: relErr,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *SamplingResult) Render() string {
	header := []string{"Mode", "Window", "Coverage", "Rel. error vs full trace"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode.String(),
			fmt.Sprintf("%d", row.Window),
			pct(row.Coverage),
			fmt.Sprintf("%+.1f%%", 100*row.RelErr),
		})
	}
	title := fmt.Sprintf("Methodology: sampled simulation error (%s, full MPI %.4f)", r.Workload, r.FullMPI)
	return renderTable(title, header, rows)
}
