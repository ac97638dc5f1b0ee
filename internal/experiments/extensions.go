package experiments

import (
	"context"
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/tlb"
	"ibsim/internal/trace"
)

// Extensions: the paper's explicitly-named future work ("more aggressive
// (non-sequential) prefetching schemes", multi-issue impact) and the
// software-based methods its related-work section surveys, evaluated on the
// same IBS workloads.

// ---------------------------------------------------- Victim cache

// VictimRow is one victim-cache depth's result.
type VictimRow struct {
	VictimLines int
	CPI         float64
	MPI         float64 // per 100 instructions (L1 misses, incl. victim hits)
}

// VictimResult compares victim caches (Jouppi's other small-fully-assoc
// structure) against the plain direct-mapped baseline and a 2-way L1 of the
// same capacity.
type VictimResult struct {
	Baseline float64 // plain 8-KB DM CPIinstr
	TwoWay   float64 // 8-KB 2-way CPIinstr (the cycle-time-infeasible rival)
	Rows     []VictimRow
}

// ExtensionVictim sweeps victim-cache sizes on the IBS suite behind the
// on-chip L2 link.
func ExtensionVictim(opt Options) (*VictimResult, error) {
	opt = opt.withDefaults()
	link := memsys.L1L2Link()
	res := &VictimResult{}
	var err error
	if res.Baseline, err = l1CPI(ibsProfiles(), BaseL1(), link, opt); err != nil {
		return nil, err
	}
	twoWay := BaseL1()
	twoWay.Assoc = 2
	if res.TwoWay, err = l1CPI(ibsProfiles(), twoWay, link, opt); err != nil {
		return nil, err
	}
	for _, lines := range []int{1, 2, 4, 8, 15} {
		cpi, mpi, err := suiteMeanEngineCPI(ibsProfiles(), opt, func() (fetch.Engine, error) {
			return fetch.NewVictim(BaseL1(), link, lines)
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, VictimRow{VictimLines: lines, CPI: cpi, MPI: 100 * mpi})
	}
	return res, nil
}

// Render prints the sweep.
func (r *VictimResult) Render() string {
	header := []string{"Configuration", "L1 CPIinstr"}
	rows := [][]string{{"8-KB DM (baseline)", f3(r.Baseline)}}
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("+ %d-line victim cache", row.VictimLines), f3(row.CPI)})
	}
	rows = append(rows, []string{"8-KB 2-way (cycle-time-infeasible)", f3(r.TwoWay)})
	return renderTable("Extension: victim caches vs associativity (IBS average)", header, rows)
}

// ---------------------------------------------------- Multi-way stream buffers

// MultiStreamRow is one (ways, depth) configuration.
type MultiStreamRow struct {
	Ways  int
	Depth int
	CPI   float64
}

// MultiStreamResult evaluates multi-way stream buffers (Jouppi;
// Palacharla & Kessler) — the non-sequential prefetching direction the
// paper's conclusion names as future work. IBS's cross-domain interleaving
// is exactly the workload property that kills a single stream buffer.
type MultiStreamResult struct {
	// Single is the Table 8 single-stream reference at the same total lines.
	Rows []MultiStreamRow
}

// ExtensionMultiStream sweeps ways × depth at 16 B/cycle (16-byte lines).
func ExtensionMultiStream(opt Options) (*MultiStreamResult, error) {
	opt = opt.withDefaults()
	link := memsys.L1L2Link()
	res := &MultiStreamResult{}
	for _, ways := range []int{1, 2, 4, 8} {
		for _, depth := range []int{2, 4, 6} {
			cpi, _, err := suiteMeanEngineCPI(ibsProfiles(), opt, func() (fetch.Engine, error) {
				return fetch.NewMultiStream(baseL1WithLine(16), link, ways, depth)
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, MultiStreamRow{Ways: ways, Depth: depth, CPI: cpi})
		}
	}
	return res, nil
}

// Render prints the ways × depth grid.
func (r *MultiStreamResult) Render() string {
	depths := []int{2, 4, 6}
	header := []string{"Stream ways \\ depth"}
	for _, d := range depths {
		header = append(header, fmt.Sprintf("%d lines", d))
	}
	byKey := map[[2]int]float64{}
	waySet := map[int]bool{}
	for _, row := range r.Rows {
		byKey[[2]int{row.Ways, row.Depth}] = row.CPI
		waySet[row.Ways] = true
	}
	var rows [][]string
	for w := 1; w <= 64; w *= 2 {
		if !waySet[w] {
			continue
		}
		row := []string{fmt.Sprintf("%d", w)}
		for _, d := range depths {
			row = append(row, f3(byKey[[2]int{w, d}]))
		}
		rows = append(rows, row)
	}
	return renderTable("Extension: multi-way stream buffers (IBS average L1 CPIinstr, 16 B/cycle)", header, rows)
}

// ---------------------------------------------------- Issue-width impact

// IssueWidthRow is the fetch-stall share at one issue width.
type IssueWidthRow struct {
	Width int
	// BaseCPI is the ideal CPI at this width (1/width).
	BaseCPI float64
	// TotalCPI is base + CPIinstr of the fully optimized system.
	TotalCPI float64
	// FetchShare is the fraction of execution time lost to I-fetch stalls.
	FetchShare float64
}

// IssueWidthResult quantifies the paper's closing sentence: "instruction-
// fetch overhead will be an important component of the execution time of
// future multi-issue processors that rely on small primary caches". It takes
// the fully optimized high-performance configuration's CPIinstr (~0.18) and
// shows its share of execution at 1-, 2- and 4-wide issue.
type IssueWidthResult struct {
	CPIinstr float64
	Rows     []IssueWidthRow
}

// ExtensionIssueWidth computes the final-system CPIinstr and its share.
func ExtensionIssueWidth(opt Options) (*IssueWidthResult, error) {
	opt = opt.withDefaults()
	// Fully optimized: pipelined 18-line stream buffer L1 + 64-KB 8-way L2
	// backed by the high-performance memory.
	l1, _, err := suiteMeanEngineCPI(ibsProfiles(), opt, func() (fetch.Engine, error) {
		return fetch.NewStream(baseL1WithLine(16), memsys.L1L2Link(), 18)
	})
	if err != nil {
		return nil, err
	}
	l2cfg := cache.Config{Size: 64 * 1024, LineSize: 64, Assoc: 8}
	l2, err := l2CPI(ibsProfiles(), l2cfg, memsys.HighPerformance().Memory, opt)
	if err != nil {
		return nil, err
	}
	res := &IssueWidthResult{CPIinstr: l1 + l2}
	for _, width := range []int{1, 2, 4} {
		base := 1.0 / float64(width)
		total := base + res.CPIinstr
		res.Rows = append(res.Rows, IssueWidthRow{
			Width:      width,
			BaseCPI:    base,
			TotalCPI:   total,
			FetchShare: res.CPIinstr / total,
		})
	}
	return res, nil
}

// Render prints the table.
func (r *IssueWidthResult) Render() string {
	header := []string{"Issue width", "Ideal CPI", "CPI with I-fetch stalls", "Fetch share of time"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d-issue", row.Width), f2(row.BaseCPI), f2(row.TotalCPI), pct(row.FetchShare),
		})
	}
	return renderTable(
		fmt.Sprintf("Extension: multi-issue impact of the CPIinstr floor (%.2f, fully optimized high-perf system)", r.CPIinstr),
		header, rows)
}

// ---------------------------------------------------- TLB sweep

// TLBRow is one TLB configuration's behavior.
type TLBRow struct {
	Entries int
	Assoc   int
	// MissesPer100 is TLB misses per 100 instructions (IBS/Mach average,
	// full reference stream).
	MissesPer100 float64
}

// TLBResult sweeps TLB reach the way the authors' companion work (Nagle et
// al. 1993, "Design Tradeoffs for Software-Managed TLBs", built on the same
// infrastructure) did: code bloat pressures the TLB exactly as it pressures
// the I-cache.
type TLBResult struct {
	Rows []TLBRow
}

// ExtensionTLB sweeps entries × associativity over the IBS/Mach suite.
func ExtensionTLB(opt Options) (*TLBResult, error) {
	opt = opt.withDefaults()
	res := &TLBResult{}
	profiles := ibsProfiles()
	entries := []int{16, 32, 64, 128, 256}
	assocs := []int{0, 4} // fully associative and 4-way
	acc := map[[2]int]float64{}
	for _, p := range profiles {
		g, err := synth.NewGenerator(p, opt.Seed)
		if err != nil {
			return nil, err
		}
		refs := make([]trace.Ref, 0, opt.Instructions+opt.Instructions/3)
		for g.Instructions() < opt.Instructions {
			refs = append(refs, g.Next())
		}
		for _, e := range entries {
			for _, a := range assocs {
				t, err := tlb.New(tlb.Config{Entries: e, PageSize: 4096, Assoc: a})
				if err != nil {
					return nil, err
				}
				var instr int64
				for _, r := range refs {
					if r.Kind == trace.IFetch {
						instr++
						if r.Domain == trace.Kernel {
							continue // kseg0: unmapped kernel text
						}
					}
					t.Access(r.Addr, r.Domain)
				}
				st := t.Stats()
				acc[[2]int{e, a}] += 100 * float64(st.Misses) / float64(instr) / float64(len(profiles))
			}
		}
	}
	for _, e := range entries {
		for _, a := range assocs {
			res.Rows = append(res.Rows, TLBRow{Entries: e, Assoc: a, MissesPer100: acc[[2]int{e, a}]})
		}
	}
	return res, nil
}

// Render prints the sweep.
func (r *TLBResult) Render() string {
	header := []string{"Entries", "Fully-assoc misses/100", "4-way misses/100"}
	byKey := map[[2]int]float64{}
	entrySet := map[int]bool{}
	for _, row := range r.Rows {
		byKey[[2]int{row.Entries, row.Assoc}] = row.MissesPer100
		entrySet[row.Entries] = true
	}
	var rows [][]string
	for e := 8; e <= 1024; e *= 2 {
		if !entrySet[e] {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", e), f3(byKey[[2]int{e, 0}]), f3(byKey[[2]int{e, 4}]),
		})
	}
	return renderTable("Extension: TLB reach under IBS (misses per 100 instructions, 4-KB pages)", header, rows)
}

// ---------------------------------------------------- Procedure placement

// PlacementResult measures profile-guided procedure placement (Hwu & Chang;
// McFarling — the related-work software methods): the same workload with
// scattered (linker-order) vs popularity-ordered text layout.
type PlacementResult struct {
	Workload  string
	Scattered float64 // MPI per 100, 8-KB DM
	HotPacked float64
	// ScatteredAssoc is the scattered layout in a 2-way cache — placement
	// and associativity attack the same conflict misses.
	ScatteredAssoc float64
}

// ExtensionPlacement compares layouts on gcc (the workload compilers care
// about), each contender one read of its layout's runs (mapRuns).
func ExtensionPlacement(opt Options) (*PlacementResult, error) {
	opt = opt.withDefaults()
	p, err := synth.Lookup("gcc")
	if err != nil {
		return nil, err
	}
	res := &PlacementResult{Workload: p.Name}

	mpi := func(prof synth.Profile, cfg cache.Config) (float64, error) {
		per, err := mapRuns([]synth.Profile{prof}, opt, func(_ context.Context, _ synth.Profile, src trace.RunReader) (float64, error) {
			st, err := simulateCache(cfg, src, nil)
			return 100 * float64(st.Misses) / float64(st.Accesses), err
		})
		if err != nil {
			return 0, err
		}
		return per[0], nil
	}

	if res.Scattered, err = mpi(p, BaseL1()); err != nil {
		return nil, err
	}
	hot := p
	for d := range hot.Domains {
		if hot.Domains[d].TimeShare > 0 {
			hot.Domains[d].HotLayout = true
		}
	}
	if res.HotPacked, err = mpi(hot, BaseL1()); err != nil {
		return nil, err
	}
	twoWay := BaseL1()
	twoWay.Assoc = 2
	if res.ScatteredAssoc, err = mpi(p, twoWay); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *PlacementResult) Render() string {
	header := []string{"Configuration", "MPI (per 100)"}
	rows := [][]string{
		{"scattered layout, 8-KB DM", f2(r.Scattered)},
		{"profile-guided layout, 8-KB DM", f2(r.HotPacked)},
		{"scattered layout, 8-KB 2-way", f2(r.ScatteredAssoc)},
	}
	return renderTable(
		fmt.Sprintf("Extension: profile-guided procedure placement (%s)", r.Workload),
		header, rows)
}
