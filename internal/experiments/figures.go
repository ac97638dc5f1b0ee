package experiments

import (
	"context"
	"fmt"
	"strings"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/stats"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/threec"
	"ibsim/internal/trace"
	"ibsim/internal/vm"
)

// ---------------------------------------------------------------- Figure 1

// Figure1Point is one cache size's miss decomposition, in misses per 100
// instructions.
type Figure1Point struct {
	SizeKB     int
	Capacity   float64
	Conflict   float64
	Compulsory float64
	Total      float64
}

// Figure1Result reproduces "Capacity and Conflict Misses in SPEC92 and IBS":
// suite-average MPI decomposed by the Three-Cs model over cache sizes
// 8–256 KB (direct-mapped totals; conflict = DM − 8-way; 32-byte lines).
type Figure1Result struct {
	SPEC []Figure1Point
	IBS  []Figure1Point
}

// figure1Sizes are the cache capacities (KB) both suites are swept over.
func figure1Sizes() []int { return []int{8, 16, 32, 64, 128, 256} }

// Figure1 runs the Three-Cs decomposition for both suites. The default path
// computes each workload's whole capacity curve — every size's direct-mapped
// total and 8-way capacity reference, plus the first-touch count — in ONE
// sweep-engine pass; Options.PerConfig selects the original
// two-simulations-per-size ClassifyApprox path. Both produce bit-identical
// Breakdowns.
func Figure1(opt Options) (*Figure1Result, error) {
	opt = opt.withDefaults()
	if opt.PerConfig {
		return figure1PerConfig(opt)
	}
	return figure1Sweep(opt)
}

// figure1Suites fills a Figure1Result from a per-suite point builder.
func figure1Suites(build func(profiles []synth.Profile) ([]Figure1Point, error)) (*Figure1Result, error) {
	res := &Figure1Result{}
	var err error
	if res.SPEC, err = build(specProfiles()); err != nil {
		return nil, err
	}
	if res.IBS, err = build(ibsProfiles()); err != nil {
		return nil, err
	}
	return res, nil
}

// figure1Accumulate reduces per-profile breakdowns (profile-major, size-minor)
// into suite-mean points, in misses per 100 instructions.
func figure1Accumulate(sizes []int, per [][]threec.Breakdown, nProfiles int) []Figure1Point {
	points := make([]Figure1Point, len(sizes))
	for i, kb := range sizes {
		points[i].SizeKB = kb
	}
	n := float64(nProfiles)
	for _, out := range per {
		for i := range sizes {
			points[i].Capacity += 100 * out[i].CapacityMPI() / n
			points[i].Conflict += 100 * out[i].ConflictMPI() / n
			points[i].Compulsory += 100 * out[i].CompulsoryMPI() / n
			points[i].Total += 100 * out[i].MPI() / n
		}
	}
	return points
}

// figure1PerConfig is the original reference path: ClassifyApprox runs its
// own direct-mapped and 8-way simulations for every size.
func figure1PerConfig(opt Options) (*Figure1Result, error) {
	sizes := figure1Sizes()
	return figure1Suites(func(profiles []synth.Profile) ([]Figure1Point, error) {
		per, err := mapRefs(profiles, opt, func(p synth.Profile, refs []trace.Ref) ([]threec.Breakdown, error) {
			out := make([]threec.Breakdown, len(sizes))
			for i, kb := range sizes {
				out[i] = threec.ClassifyApprox(kb*1024, 32, refs)
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		return figure1Accumulate(sizes, per, len(profiles)), nil
	})
}

// figure1Sweep computes the same breakdowns from a single sweep-engine pass
// per workload: the grid holds each size's direct-mapped cell and its 8-way
// capacity-reference cell, and first touches come from the pass's distinct
// count, so 2·|sizes| cache simulations collapse into one trace traversal.
func figure1Sweep(opt Options) (*Figure1Result, error) {
	sizes := figure1Sizes()
	const lineSize = 32
	return figure1Suites(func(profiles []synth.Profile) ([]Figure1Point, error) {
		per, err := mapRuns(profiles, opt, func(ctx context.Context, p synth.Profile, src trace.RunReader) ([]threec.Breakdown, error) {
			cells := make([]sweep.Cell, 0, 2*len(sizes))
			for _, kb := range sizes {
				lines := kb * 1024 / lineSize
				aref := threec.ApproxAssocRef(lines)
				cells = append(cells,
					sweep.Cell{Sets: lines, Assoc: 1},
					sweep.Cell{Sets: lines / aref, Assoc: aref})
			}
			m, err := sweep.SampledPass{LineSize: lineSize, Cells: cells, CountDistinct: true, Ctx: ctx}.Sweep(src)
			if err != nil {
				return nil, err
			}
			out := make([]threec.Breakdown, len(sizes))
			for i := range sizes {
				out[i] = threec.FromApproxCounts(m.Accesses, m.Distinct, m.Misses[2*i], m.Misses[2*i+1])
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		return figure1Accumulate(sizes, per, len(profiles)), nil
	})
}

// Render prints both series.
func (f *Figure1Result) Render() string {
	render := func(name string, pts []Figure1Point) string {
		header := []string{"I-cache Size (KB)", "Capacity", "Conflict", "Compulsory", "Total MPI"}
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.SizeKB), f2(p.Capacity), f2(p.Conflict), f2(p.Compulsory), f2(p.Total),
			})
		}
		return renderTable("Figure 1 ("+name+"): misses per 100 instructions", header, rows)
	}
	return render("SPEC92", f.SPEC) + "\n" + render("IBS", f.IBS)
}

// ---------------------------------------------------------------- Figure 3

// Figure3Point is one L2 configuration's total CPIinstr.
type Figure3Point struct {
	L2SizeKB   int
	L2LineSize int
	L1CPI      float64
	L2CPI      float64
}

// Total returns L1 + L2 CPIinstr.
func (p Figure3Point) Total() float64 { return p.L1CPI + p.L2CPI }

// Figure3Result reproduces "Total CPIinstr vs. L2 Line Size": an on-chip
// direct-mapped L2 added to both baselines, swept over L2 size and line
// size. The L1 is the 8-KB baseline behind the 6-cycle/16-B-per-cycle
// on-chip link.
type Figure3Result struct {
	// Economy and HighPerf hold points for every (size, line) combination.
	Economy  []Figure3Point
	HighPerf []Figure3Point
	// Baselines are the no-L2 reference lines (Table 5 values).
	EconomyBase, HighPerfBase float64
}

// figure3Grid is the swept L2 geometry: sizes in KB × line sizes in bytes.
func figure3Grid() (sizesKB, lines []int) {
	return []int{16, 32, 64, 128, 256}, []int{8, 16, 32, 64, 128, 256}
}

// figure3Key indexes one (L2 size, L2 line size) grid cell.
type figure3Key struct{ kb, line int }

// figure3PerProfile carries one workload's contribution to every Figure 3
// number: the grid cells (economy, high-performance CPIinstr pairs) and the
// three baseline-L1 CPIs.
type figure3PerProfile struct {
	cells               map[figure3Key][2]float64
	l1, ecoBase, hpBase float64
}

// Figure3 runs the sweep. The default path computes every workload's whole
// size × line grid with one single-pass sweep per line size plus analytic
// CPI reconstruction (fetch.BlockingResult); Options.PerConfig selects the
// original one-engine-simulation-per-cell path. The two paths render
// byte-identical output.
func Figure3(opt Options) (*Figure3Result, error) {
	opt = opt.withDefaults()
	var per []figure3PerProfile
	var err error
	profiles := ibsProfiles()
	if opt.PerConfig {
		per, err = figure3PerConfig(profiles, opt)
	} else {
		per, err = figure3Sweep(profiles, opt)
	}
	if err != nil {
		return nil, err
	}
	return figure3Assemble(profiles, per), nil
}

// figure3Assemble reduces per-profile results (profile order) into the
// suite-mean figure. The accumulation — one += v/n term per profile per
// value, in profile order — is shared by both execution paths, so equal
// per-profile CPIs guarantee equal (bitwise) figure output.
func figure3Assemble(profiles []synth.Profile, per []figure3PerProfile) *Figure3Result {
	sizesKB, lines := figure3Grid()
	res := &Figure3Result{}
	var l1 float64
	n := float64(len(profiles))
	for _, out := range per {
		l1 += out.l1 / n
		res.EconomyBase += out.ecoBase / n
		res.HighPerfBase += out.hpBase / n
	}
	ecoCPI := map[figure3Key]float64{}
	hpCPI := map[figure3Key]float64{}
	for _, out := range per {
		for k, v := range out.cells {
			ecoCPI[k] += v[0] / n
			hpCPI[k] += v[1] / n
		}
	}
	for _, kb := range sizesKB {
		for _, line := range lines {
			k := figure3Key{kb, line}
			res.Economy = append(res.Economy, Figure3Point{L2SizeKB: kb, L2LineSize: line, L1CPI: l1, L2CPI: ecoCPI[k]})
			res.HighPerf = append(res.HighPerf, Figure3Point{L2SizeKB: kb, L2LineSize: line, L1CPI: l1, L2CPI: hpCPI[k]})
		}
	}
	return res
}

// figure3PerConfig is the original reference path: one full blocking-engine
// simulation per (size, line, memory) cell plus three baseline simulations,
// workloads in parallel.
func figure3PerConfig(profiles []synth.Profile, opt Options) ([]figure3PerProfile, error) {
	sizesKB, lines := figure3Grid()
	return mapRefs(profiles, opt, func(p synth.Profile, refs []trace.Ref) (figure3PerProfile, error) {
		out := figure3PerProfile{cells: map[figure3Key][2]float64{}}
		for _, kb := range sizesKB {
			for _, line := range lines {
				cfg := cache.Config{Size: kb * 1024, LineSize: line, Assoc: 1}
				eco, err := fetch.NewBlocking(cfg, memsys.Economy().Memory, 0)
				if err != nil {
					return figure3PerProfile{}, err
				}
				hp, err := fetch.NewBlocking(cfg, memsys.HighPerformance().Memory, 0)
				if err != nil {
					return figure3PerProfile{}, err
				}
				out.cells[figure3Key{kb, line}] = [2]float64{
					fetch.Run(eco, refs).CPIinstr(),
					fetch.Run(hp, refs).CPIinstr(),
				}
			}
		}
		for _, probe := range []struct {
			link memsys.Transfer
			dst  *float64
		}{
			{memsys.L1L2Link(), &out.l1},
			{memsys.Economy().Memory, &out.ecoBase},
			{memsys.HighPerformance().Memory, &out.hpBase},
		} {
			e, err := fetch.NewBlocking(BaseL1(), probe.link, 0)
			if err != nil {
				return figure3PerProfile{}, err
			}
			*probe.dst = fetch.Run(e, refs).CPIinstr()
		}
		return out, nil
	})
}

// figure3Sweep computes the same per-profile numbers with one sweep-engine
// pass per line size: the pass yields every capacity's miss count at once,
// and fetch.BlockingResult turns each count into the exact CPIinstr a
// blocking engine would report for any memory link — 63 engine simulations
// per workload collapse into 6 trace traversals and integer arithmetic.
func figure3Sweep(profiles []synth.Profile, opt Options) ([]figure3PerProfile, error) {
	sizesKB, lines := figure3Grid()
	base := BaseL1()
	return mapRuns(profiles, opt, func(ctx context.Context, p synth.Profile, src trace.RunReader) (figure3PerProfile, error) {
		out := figure3PerProfile{cells: map[figure3Key][2]float64{}}
		for _, line := range lines {
			cells := make([]sweep.Cell, 0, len(sizesKB)+1)
			for _, kb := range sizesKB {
				cells = append(cells, sweep.Cell{Sets: kb * 1024 / line, Assoc: 1})
			}
			if line == base.LineSize {
				// Ride the 8-KB baseline L1 along on this pass: the same miss
				// count serves all three baseline links.
				cells = append(cells, sweep.Cell{Sets: base.Size / base.LineSize, Assoc: 1})
			}
			m, err := sweep.SampledPass{LineSize: line, Cells: cells, Ctx: ctx}.Sweep(src)
			if err != nil {
				return figure3PerProfile{}, err
			}
			n := m.Accesses
			for i, kb := range sizesKB {
				out.cells[figure3Key{kb, line}] = [2]float64{
					fetch.BlockingResult(n, m.Misses[i], line, memsys.Economy().Memory).CPIinstr(),
					fetch.BlockingResult(n, m.Misses[i], line, memsys.HighPerformance().Memory).CPIinstr(),
				}
			}
			if line == base.LineSize {
				miss := m.Misses[len(sizesKB)]
				out.l1 = fetch.BlockingResult(n, miss, base.LineSize, memsys.L1L2Link()).CPIinstr()
				out.ecoBase = fetch.BlockingResult(n, miss, base.LineSize, memsys.Economy().Memory).CPIinstr()
				out.hpBase = fetch.BlockingResult(n, miss, base.LineSize, memsys.HighPerformance().Memory).CPIinstr()
			}
		}
		return out, nil
	})
}

// Render prints both panels as size × line matrices of total CPIinstr.
func (f *Figure3Result) Render() string {
	panel := func(name string, pts []Figure3Point, base float64) string {
		lineSet := map[int]bool{}
		sizeSet := map[int]bool{}
		for _, p := range pts {
			lineSet[p.L2LineSize] = true
			sizeSet[p.L2SizeKB] = true
		}
		var lines, sizes []int
		for l := 8; l <= 4096; l *= 2 {
			if lineSet[l] {
				lines = append(lines, l)
			}
		}
		for s := 1; s <= 4096; s *= 2 {
			if sizeSet[s] {
				sizes = append(sizes, s)
			}
		}
		header := []string{"L2 size \\ line"}
		for _, l := range lines {
			header = append(header, fmt.Sprintf("%dB", l))
		}
		byKey := map[[2]int]Figure3Point{}
		for _, p := range pts {
			byKey[[2]int{p.L2SizeKB, p.L2LineSize}] = p
		}
		var rows [][]string
		for _, s := range sizes {
			row := []string{fmt.Sprintf("%dKB", s)}
			for _, l := range lines {
				row = append(row, f2(byKey[[2]int{s, l}].Total()))
			}
			rows = append(rows, row)
		}
		title := fmt.Sprintf("Figure 3 (%s): Total CPIinstr vs L2 size and line size (baseline %.2f)", name, base)
		return renderTable(title, header, rows)
	}
	return panel("economy", f.Economy, f.EconomyBase) + "\n" + panel("high-performance", f.HighPerf, f.HighPerfBase)
}

// ---------------------------------------------------------------- Figure 4

// Figure4Point is one associativity's total CPIinstr for a 64-KB L2.
type Figure4Point struct {
	Assoc int
	L1CPI float64
	L2CPI float64
}

// Total returns L1 + L2 CPIinstr.
func (p Figure4Point) Total() float64 { return p.L1CPI + p.L2CPI }

// Figure4Result reproduces "CPIinstr vs. L2 Associativity" (64-KB on-chip
// L2, 64-byte lines, both baselines).
type Figure4Result struct {
	Economy  []Figure4Point
	HighPerf []Figure4Point
}

// figure4PerProfile carries one workload's contribution to Figure 4: per
// associativity the (economy, high-performance) CPIinstr pair, plus the
// baseline-L1 CPI.
type figure4PerProfile struct {
	byAssoc [][2]float64
	l1      float64
}

// figure4Assocs are the swept L2 associativities.
func figure4Assocs() []int { return []int{1, 2, 4, 8} }

// Figure4 runs the associativity sweep. The default path resolves all four
// associativities of the 64-KB L2 from one single-pass sweep (per-set LRU
// stack distances settle every depth at once) plus a second tiny pass for
// the baseline L1; Options.PerConfig selects the original
// one-simulation-per-associativity path. Both render byte-identical output.
func Figure4(opt Options) (*Figure4Result, error) {
	opt = opt.withDefaults()
	profiles := ibsProfiles()
	var per []figure4PerProfile
	var err error
	if opt.PerConfig {
		per, err = figure4PerConfig(profiles, opt)
	} else {
		per, err = figure4Sweep(profiles, opt)
	}
	if err != nil {
		return nil, err
	}
	assocs := figure4Assocs()
	res := &Figure4Result{}
	var l1 float64
	eco := make([]float64, len(assocs))
	hp := make([]float64, len(assocs))
	n := float64(len(profiles))
	for _, out := range per {
		l1 += out.l1 / n
	}
	for _, out := range per {
		for i := range assocs {
			eco[i] += out.byAssoc[i][0] / n
			hp[i] += out.byAssoc[i][1] / n
		}
	}
	for i, a := range assocs {
		res.Economy = append(res.Economy, Figure4Point{Assoc: a, L1CPI: l1, L2CPI: eco[i]})
		res.HighPerf = append(res.HighPerf, Figure4Point{Assoc: a, L1CPI: l1, L2CPI: hp[i]})
	}
	return res, nil
}

// figure4PerConfig is the original reference path: one blocking-engine
// simulation per associativity per memory, plus the baseline simulation.
func figure4PerConfig(profiles []synth.Profile, opt Options) ([]figure4PerProfile, error) {
	assocs := figure4Assocs()
	return mapRefs(profiles, opt, func(p synth.Profile, refs []trace.Ref) (figure4PerProfile, error) {
		out := figure4PerProfile{byAssoc: make([][2]float64, len(assocs))}
		for i, a := range assocs {
			cfg := cache.Config{Size: 64 * 1024, LineSize: 64, Assoc: a}
			e, err := fetch.NewBlocking(cfg, memsys.Economy().Memory, 0)
			if err != nil {
				return figure4PerProfile{}, err
			}
			h, err := fetch.NewBlocking(cfg, memsys.HighPerformance().Memory, 0)
			if err != nil {
				return figure4PerProfile{}, err
			}
			out.byAssoc[i] = [2]float64{fetch.Run(e, refs).CPIinstr(), fetch.Run(h, refs).CPIinstr()}
		}
		e, err := fetch.NewBlocking(BaseL1(), memsys.L1L2Link(), 0)
		if err != nil {
			return figure4PerProfile{}, err
		}
		out.l1 = fetch.Run(e, refs).CPIinstr()
		return out, nil
	})
}

// figure4Sweep computes the same numbers from two sweep passes per workload:
// a 64-byte-line pass whose grid holds the 64-KB capacity at every
// associativity, and a 32-byte-line pass for the baseline L1.
func figure4Sweep(profiles []synth.Profile, opt Options) ([]figure4PerProfile, error) {
	assocs := figure4Assocs()
	base := BaseL1()
	return mapRuns(profiles, opt, func(ctx context.Context, p synth.Profile, src trace.RunReader) (figure4PerProfile, error) {
		out := figure4PerProfile{byAssoc: make([][2]float64, len(assocs))}
		const l2Size, l2Line = 64 * 1024, 64
		cells := make([]sweep.Cell, len(assocs))
		for i, a := range assocs {
			cells[i] = sweep.Cell{Sets: l2Size / l2Line / a, Assoc: a}
		}
		m, err := sweep.SampledPass{LineSize: l2Line, Cells: cells, Ctx: ctx}.Sweep(src)
		if err != nil {
			return figure4PerProfile{}, err
		}
		n := m.Accesses
		for i := range assocs {
			out.byAssoc[i] = [2]float64{
				fetch.BlockingResult(n, m.Misses[i], l2Line, memsys.Economy().Memory).CPIinstr(),
				fetch.BlockingResult(n, m.Misses[i], l2Line, memsys.HighPerformance().Memory).CPIinstr(),
			}
		}
		mb, err := sweep.SampledPass{LineSize: base.LineSize, Cells: []sweep.Cell{{Sets: base.Size / base.LineSize, Assoc: 1}}, Ctx: ctx}.Sweep(src)
		if err != nil {
			return figure4PerProfile{}, err
		}
		out.l1 = fetch.BlockingResult(n, mb.Misses[0], base.LineSize, memsys.L1L2Link()).CPIinstr()
		return out, nil
	})
}

// Render prints both panels.
func (f *Figure4Result) Render() string {
	header := []string{"L2 Associativity", "Economy Total CPIinstr", "High-Perf Total CPIinstr"}
	var rows [][]string
	for i := range f.Economy {
		rows = append(rows, []string{
			fmt.Sprintf("%d-way", f.Economy[i].Assoc),
			f2(f.Economy[i].Total()),
			f2(f.HighPerf[i].Total()),
		})
	}
	return renderTable("Figure 4: CPIinstr vs L2 Associativity (64-KB L2, 64-B lines)", header, rows)
}

// ---------------------------------------------------------------- Figure 5

// Figure5Point is the CPIinstr variability of one (workload, size, assoc)
// configuration across trials.
type Figure5Point struct {
	Workload string
	SizeKB   int
	Assoc    int
	// MeanCPI and StdDev are over Options.Trials runs with different random
	// page mappings.
	MeanCPI float64
	StdDev  float64
}

// Figure5Result reproduces "Variability in CPIinstr versus I-cache Size and
// Associativity": physically-indexed caches with random page allocation,
// five trials per point.
type Figure5Result struct {
	Points []Figure5Point
}

// figure5Workloads are the four workloads the paper plots.
func figure5Workloads() []string { return []string{"verilog", "gs", "eqntott", "espresso"} }

// Figure5 runs the variability experiment. The miss penalty is the
// DECstation's 6 cycles, matching the Tapeworm measurement platform. Each
// (workload, size, assoc) cell of mapPhysical runs one physically-indexed
// simulation per trial; cancellation is checked between trials.
func Figure5(opt Options) (*Figure5Result, error) {
	opt = opt.withDefaults()
	sizesKB := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}
	assocs := []int{1, 2, 4}
	const missPenalty = 6.0
	var profiles []synth.Profile
	for _, name := range figure5Workloads() {
		p, err := synth.Lookup(name)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	points, err := mapPhysical(profiles, opt, 32, len(sizesKB)*len(assocs), func(ctx context.Context, p synth.Profile, sim physSim, i int) (Figure5Point, error) {
		kb, a := sizesKB[i/len(assocs)], assocs[i%len(assocs)]
		var sample stats.Sample
		// One cache per cell, emptied for each trial: up to 1 MB of tags
		// per allocation otherwise dominates the exhibit's garbage.
		c := cache.MustNew(cache.Config{Size: kb * 1024, LineSize: 32, Assoc: a})
		for trial := 0; trial < opt.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return Figure5Point{}, err
			}
			mapper := vm.MustNewMapper(vm.Config{
				PageSize: physPageSize,
				Policy:   vm.RandomAlloc,
				Seed:     p.Seed*1000 + uint64(kb)*10 + uint64(a),
			})
			mapper.ResetTrial(uint64(trial))
			c.Reset()
			sim(mapper, c)
			st := c.Stats()
			mpi := float64(st.Misses) / float64(st.Accesses)
			sample.Add(mpi * missPenalty)
		}
		return Figure5Point{
			Workload: p.Name, SizeKB: kb, Assoc: a,
			MeanCPI: sample.Mean(), StdDev: sample.StdDev(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Points: points}, nil
}

// Render prints one panel per workload.
func (f *Figure5Result) Render() string {
	var b strings.Builder
	for _, name := range figure5Workloads() {
		header := []string{"I-cache Size (KB)", "1-way sd", "2-way sd", "4-way sd"}
		byKey := map[[2]int]Figure5Point{}
		var sizes []int
		seen := map[int]bool{}
		for _, p := range f.Points {
			if p.Workload != name {
				continue
			}
			byKey[[2]int{p.SizeKB, p.Assoc}] = p
			if !seen[p.SizeKB] {
				seen[p.SizeKB] = true
				sizes = append(sizes, p.SizeKB)
			}
		}
		var rows [][]string
		for _, kb := range sizes {
			rows = append(rows, []string{
				fmt.Sprintf("%d", kb),
				fmt.Sprintf("%.4f", byKey[[2]int{kb, 1}].StdDev),
				fmt.Sprintf("%.4f", byKey[[2]int{kb, 2}].StdDev),
				fmt.Sprintf("%.4f", byKey[[2]int{kb, 4}].StdDev),
			})
		}
		b.WriteString(renderTable("Figure 5 ("+name+"): std dev of CPIinstr across page-mapping trials", header, rows))
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Figure6Point is one (bandwidth, line size) cell.
type Figure6Point struct {
	BytesPerCycle int
	LineSize      int
	L1CPI         float64
}

// Figure6Result reproduces "Bandwidth and L1 CPIinstr vs. Line Size": the
// 8-KB direct-mapped L1 behind a 6-cycle link at several bandwidths, with
// the full-line-refill stall model.
type Figure6Result struct {
	Points []Figure6Point
}

// Figure6 runs the sweep: one bank of 35 blocking engines per workload in
// (bandwidth, line) order. The five bandwidths sharing each line size form
// one content class, so the fan-out driver runs one L1 pass per line size —
// 7 per workload instead of 35.
func Figure6(opt Options) (*Figure6Result, error) {
	opt = opt.withDefaults()
	bws := []int{4, 8, 16, 32, 64}
	lines := []int{4, 8, 16, 32, 64, 128, 256}
	res := &Figure6Result{}
	profiles := ibsProfiles()
	per, err := mapBanks(profiles, opt, func() ([]fetch.Engine, error) {
		engines := make([]fetch.Engine, 0, len(bws)*len(lines))
		for _, bw := range bws {
			for _, l := range lines {
				e, err := fetch.NewBlocking(baseL1WithLine(l), memsys.Transfer{Latency: 6, BytesPerCycle: bw}, 0)
				if err != nil {
					return nil, err
				}
				engines = append(engines, e)
			}
		}
		return engines, nil
	})
	if err != nil {
		return nil, err
	}
	acc := map[[2]int]float64{}
	for _, bank := range per {
		k := 0
		for _, bw := range bws {
			for _, l := range lines {
				acc[[2]int{bw, l}] += bank[k].CPIinstr() / float64(len(profiles))
				k++
			}
		}
	}
	for _, bw := range bws {
		for _, l := range lines {
			res.Points = append(res.Points, Figure6Point{BytesPerCycle: bw, LineSize: l, L1CPI: acc[[2]int{bw, l}]})
		}
	}
	return res, nil
}

// Optimal returns the line size minimizing L1 CPIinstr for a bandwidth.
func (f *Figure6Result) Optimal(bytesPerCycle int) (lineSize int, cpi float64) {
	cpi = -1
	for _, p := range f.Points {
		if p.BytesPerCycle != bytesPerCycle {
			continue
		}
		if cpi < 0 || p.L1CPI < cpi {
			cpi = p.L1CPI
			lineSize = p.LineSize
		}
	}
	return lineSize, cpi
}

// Render prints the bandwidth × line-size matrix with optima marked.
func (f *Figure6Result) Render() string {
	bwSet := map[int]bool{}
	lineSet := map[int]bool{}
	for _, p := range f.Points {
		bwSet[p.BytesPerCycle] = true
		lineSet[p.LineSize] = true
	}
	var bws, lines []int
	for v := 1; v <= 1024; v *= 2 {
		if bwSet[v] {
			bws = append(bws, v)
		}
		if lineSet[v] {
			lines = append(lines, v)
		}
	}
	header := []string{"bandwidth \\ line"}
	for _, l := range lines {
		header = append(header, fmt.Sprintf("%dB", l))
	}
	byKey := map[[2]int]float64{}
	for _, p := range f.Points {
		byKey[[2]int{p.BytesPerCycle, p.LineSize}] = p.L1CPI
	}
	var rows [][]string
	for _, bw := range bws {
		opt, _ := f.Optimal(bw)
		row := []string{fmt.Sprintf("%d B/cyc", bw)}
		for _, l := range lines {
			cell := f3(byKey[[2]int{bw, l}])
			if l == opt {
				cell += "*"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return renderTable("Figure 6: L1 CPIinstr vs line size and bandwidth (8-KB DM; * = optimal line)", header, rows)
}

// ---------------------------------------------------------------- Figure 7

// Figure7Rung is one rung of the cumulative-optimization ladder.
type Figure7Rung struct {
	Name  string
	L1CPI float64
	L2CPI float64
}

// Total returns the rung's total CPIinstr.
func (r Figure7Rung) Total() float64 { return r.L1CPI + r.L2CPI }

// Figure7Result reproduces "Summary of L1 and L2 Cache Optimizations": the
// cumulative effect of adding an on-chip 8-way L2, raising L1–L2 bandwidth,
// prefetching, bypassing, and pipelining with stream buffers, for both
// baseline configurations.
type Figure7Result struct {
	Economy  []Figure7Rung
	HighPerf []Figure7Rung
}

// Figure7 runs the ladder: one bank of nine engines per workload — the two
// L2 contributions, the five L1 rungs, and the two baselines. They form
// five content classes (the two L2s; the two baselines and the 32-B rung;
// the 64-B rung; the prefetching and bypassing rungs, which fill the same
// four 16-B lines per miss; the stream buffer), so the fan-out driver runs
// five L1 passes per workload instead of nine.
func Figure7(opt Options) (*Figure7Result, error) {
	opt = opt.withDefaults()
	res := &Figure7Result{}
	profiles := ibsProfiles()

	// L2: 64-KB, 8-way, 64-byte lines, behind each baseline memory (the
	// paper's methodology simulates the L2 over the full instruction
	// stream). L1 rungs are identical for both configurations; only the L2
	// differs. The paper fixes the L1–L2 interface at 16 bytes/cycle once
	// bandwidth is tuned ("we fixed the L1-L2 interface at 16 bytes/cycle
	// and used this configuration to examine the effects of prefetching,
	// bypassing and pipelining"); the Bandwidth rung is the Figure 6 optimum
	// at that rate — a 64-byte line.
	l2cfg := cache.Config{Size: 64 * 1024, LineSize: 64, Assoc: 8}
	base16 := memsys.L1L2Link() // 6 cycles, 16 B/cyc
	mks := []func() (fetch.Engine, error){
		func() (fetch.Engine, error) { return fetch.NewBlocking(l2cfg, memsys.Economy().Memory, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(l2cfg, memsys.HighPerformance().Memory, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(BaseL1(), base16, 0) },           // 32-B line, on-chip L2
		func() (fetch.Engine, error) { return fetch.NewBlocking(baseL1WithLine(64), base16, 0) }, // tuned line
		func() (fetch.Engine, error) { return fetch.NewBlocking(baseL1WithLine(16), base16, 3) },
		func() (fetch.Engine, error) { return fetch.NewBypass(baseL1WithLine(16), base16, 3) },
		func() (fetch.Engine, error) { return fetch.NewStream(baseL1WithLine(16), base16, 18) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(BaseL1(), memsys.Economy().Memory, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(BaseL1(), memsys.HighPerformance().Memory, 0) },
	}
	per, err := mapBanks(profiles, opt, func() ([]fetch.Engine, error) {
		engines := make([]fetch.Engine, len(mks))
		for i, mk := range mks {
			e, err := mk()
			if err != nil {
				return nil, err
			}
			engines[i] = e
		}
		return engines, nil
	})
	if err != nil {
		return nil, err
	}
	var vals [9]float64
	n := float64(len(profiles))
	for _, bank := range per {
		for k := range vals {
			vals[k] += bank[k].CPIinstr() / n
		}
	}
	l2eco, l2hp := vals[0], vals[1]
	l1Base32, l1Wide, l1Prefetch, l1Bypass, l1Pipe := vals[2], vals[3], vals[4], vals[5], vals[6]
	ecoBase, hpBase := vals[7], vals[8]

	ladder := func(l2 float64, base float64) []Figure7Rung {
		return []Figure7Rung{
			{Name: "Baseline", L1CPI: base, L2CPI: 0},
			{Name: "On-Chip L2", L1CPI: l1Base32, L2CPI: l2},
			{Name: "Bandwidth", L1CPI: l1Wide, L2CPI: l2},
			{Name: "Prefetching", L1CPI: l1Prefetch, L2CPI: l2},
			{Name: "Bypassing", L1CPI: l1Bypass, L2CPI: l2},
			{Name: "Pipelining", L1CPI: l1Pipe, L2CPI: l2},
		}
	}
	res.Economy = ladder(l2eco, ecoBase)
	res.HighPerf = ladder(l2hp, hpBase)
	return res, nil
}

// Render prints both ladders.
func (f *Figure7Result) Render() string {
	panel := func(name string, rungs []Figure7Rung) string {
		header := []string{"Optimization", "L1 CPIinstr", "L2 CPIinstr", "Total"}
		var rows [][]string
		for _, r := range rungs {
			rows = append(rows, []string{r.Name, f2(r.L1CPI), f2(r.L2CPI), f2(r.Total())})
		}
		return renderTable("Figure 7 ("+name+"): cumulative optimizations", header, rows)
	}
	return panel("economy", f.Economy) + "\n" + panel("high-performance", f.HighPerf)
}
