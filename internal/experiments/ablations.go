package experiments

import (
	"context"
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/stats"
	"ibsim/internal/synth"
	"ibsim/internal/vm"
)

// Ablations: design-choice studies the paper discusses in footnotes and
// asides, reproduced as first-class experiments.

// ------------------------------------------------- Sub-block allocation

// SubBlockResult compares the paper's footnote 1 of Section 5.2: "a 64-byte
// line with 16-byte sub-block allocation can perform almost as well as a
// 16-byte line with 3 line prefetch".
type SubBlockResult struct {
	// Line16Prefetch3 is the 16-B line + 3-line sequential prefetch CPI.
	Line16Prefetch3 float64
	// Line64SubBlock16 is the 64-B line with 16-B sub-block fill CPI.
	Line64SubBlock16 float64
	// Line64Plain is the plain 64-B line CPI for reference.
	Line64Plain float64
}

// AblationSubBlock runs the comparison over the IBS suite at 16 B/cycle.
func AblationSubBlock(opt Options) (*SubBlockResult, error) {
	opt = opt.withDefaults()
	link := memsys.L1L2Link()
	res := &SubBlockResult{}
	var err error
	if res.Line16Prefetch3, _, err = suiteMeanEngineCPI(ibsProfiles(), opt, func() (fetch.Engine, error) {
		return fetch.NewBlocking(baseL1WithLine(16), link, 3)
	}); err != nil {
		return nil, err
	}
	if res.Line64SubBlock16, _, err = suiteMeanEngineCPI(ibsProfiles(), opt, func() (fetch.Engine, error) {
		// The sector cache refills only the missing sub-block and all
		// subsequent sub-blocks in the line; the engine charges exactly
		// those bytes.
		cfg := baseL1WithLine(64)
		cfg.SubBlock = 16
		return fetch.NewBlocking(cfg, link, 0)
	}); err != nil {
		return nil, err
	}
	if res.Line64Plain, _, err = suiteMeanEngineCPI(ibsProfiles(), opt, func() (fetch.Engine, error) {
		return fetch.NewBlocking(baseL1WithLine(64), link, 0)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *SubBlockResult) Render() string {
	header := []string{"Configuration", "L1 CPIinstr"}
	rows := [][]string{
		{"16-B line, 3-line prefetch", f3(r.Line16Prefetch3)},
		{"64-B line, 16-B sub-block allocation", f3(r.Line64SubBlock16)},
		{"64-B line (plain)", f3(r.Line64Plain)},
	}
	return renderTable("Ablation: sub-block allocation vs small-line prefetch (Section 5.2 footnote)", header, rows)
}

// ------------------------------------------------- Page-allocation policy

// PagePolicyRow is one allocation policy's behavior in a physically-indexed
// cache.
type PagePolicyRow struct {
	Policy vm.Policy
	// MeanMPI is the across-trials mean misses per 100 instructions.
	MeanMPI float64
	// StdDev is the across-trials standard deviation (the Figure 5
	// quantity; careful policies should crush it).
	StdDev float64
}

// PagePolicyResult extends Figure 5's discussion: the paper argues
// associativity beats after-the-fact conflict removal (CML buffers); the OS
// page-allocation policies it cites (page coloring, bin hopping) are the
// software alternative. This ablation measures all four allocators on one
// workload and cache.
type PagePolicyResult struct {
	Workload string
	SizeKB   int
	Rows     []PagePolicyRow
}

// AblationPagePolicy measures each policy on verilog in a 64-KB
// direct-mapped physically-indexed cache: one mapPhysical cell per policy,
// one physically-indexed simulation per trial.
func AblationPagePolicy(opt Options) (*PagePolicyResult, error) {
	opt = opt.withDefaults()
	const sizeKB = 64
	p, err := synth.Lookup("verilog")
	if err != nil {
		return nil, err
	}
	colors := sizeKB * 1024 / physPageSize
	policies := []vm.Policy{vm.RandomAlloc, vm.Sequential, vm.PageColoring, vm.BinHopping}
	rows, err := mapPhysical([]synth.Profile{p}, opt, 32, len(policies), func(ctx context.Context, p synth.Profile, sim physSim, i int) (PagePolicyRow, error) {
		pol := policies[i]
		var sample stats.Sample
		for trial := 0; trial < opt.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return PagePolicyRow{}, err
			}
			mapper, err := vm.NewMapper(vm.Config{PageSize: physPageSize, Policy: pol, Colors: colors, Seed: p.Seed})
			if err != nil {
				return PagePolicyRow{}, err
			}
			mapper.ResetTrial(uint64(trial))
			c := cache.MustNew(cache.Config{Size: sizeKB * 1024, LineSize: 32, Assoc: 1})
			sim(mapper, c)
			st := c.Stats()
			sample.Add(100 * float64(st.Misses) / float64(st.Accesses))
		}
		return PagePolicyRow{Policy: pol, MeanMPI: sample.Mean(), StdDev: sample.StdDev()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &PagePolicyResult{Workload: p.Name, SizeKB: sizeKB, Rows: rows}, nil
}

// Render prints the policy table.
func (r *PagePolicyResult) Render() string {
	header := []string{"Page-allocation policy", "Mean MPI (per 100)", "Std dev across trials"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Policy.String(), f2(row.MeanMPI), fmt.Sprintf("%.4f", row.StdDev)})
	}
	title := fmt.Sprintf("Ablation: OS page-allocation policy (%s, %d-KB DM physically-indexed)", r.Workload, r.SizeKB)
	return renderTable(title, header, rows)
}

// ------------------------------------------------- Replacement policy

// ReplacementRow is one replacement policy's miss ratio.
type ReplacementRow struct {
	Policy cache.Replacement
	Assoc  int
	MPI    float64 // per 100 instructions
}

// ReplacementResult measures LRU vs FIFO vs random replacement on the IBS
// suite — all the paper's experiments assume LRU; this quantifies how much
// that assumption is worth at each associativity.
type ReplacementResult struct {
	Rows []ReplacementRow
}

// AblationReplacement sweeps policies × associativities for the 8-KB L1.
func AblationReplacement(opt Options) (*ReplacementResult, error) {
	opt = opt.withDefaults()
	res := &ReplacementResult{}
	assocs := []int{2, 4, 8}
	policies := []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}
	for _, a := range assocs {
		for _, pol := range policies {
			cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: a, Replacement: pol, Seed: 42}
			mpi, err := suiteMeanMPI(ibsProfiles(), cfg, opt)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, ReplacementRow{Policy: pol, Assoc: a, MPI: 100 * mpi})
		}
	}
	return res, nil
}

// Render prints the policy × associativity grid.
func (r *ReplacementResult) Render() string {
	header := []string{"Associativity", "LRU", "FIFO", "random"}
	byKey := map[[2]int]float64{}
	assocSet := map[int]bool{}
	for _, row := range r.Rows {
		byKey[[2]int{row.Assoc, int(row.Policy)}] = row.MPI
		assocSet[row.Assoc] = true
	}
	var rows [][]string
	for a := 1; a <= 64; a *= 2 {
		if !assocSet[a] {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d-way", a),
			f2(byKey[[2]int{a, int(cache.LRU)}]),
			f2(byKey[[2]int{a, int(cache.FIFO)}]),
			f2(byKey[[2]int{a, int(cache.Random)}]),
		})
	}
	return renderTable("Ablation: replacement policy (IBS average MPI per 100, 8-KB L1)", header, rows)
}
