package experiments

import (
	"context"
	"fmt"

	"ibsim/internal/cpi"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one suite's memory-system performance on the DECstation 3100.
type Table1Row struct {
	Suite      string
	UserShare  float64
	OSShare    float64
	Components cpi.Components
}

// Table1Result reproduces "Memory System Performance of the SPEC
// Benchmarks".
type Table1Result struct {
	Rows []Table1Row
}

// Table1 simulates the four SPEC suite aggregates on the DECstation 3100
// model.
func Table1(opt Options) (*Table1Result, error) {
	opt = opt.withDefaults()
	rows, err := mapProfiles(synth.SPECSuites(), opt, func(ctx context.Context, p synth.Profile) (Table1Row, error) {
		return DECstationRow(ctx, p, opt.Seed, opt.Instructions)
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// decstationCheckEvery is how many instructions DECstationRow simulates
// between cancellation checks: a few milliseconds of work, so a deadline
// stops a row long before it would finish.
const decstationCheckEvery = 1 << 16

// DECstationRow runs n instructions of one workload (with data references)
// at seed through the DECstation 3100 system model, returning ctx.Err()
// once ctx is done. It is the one generate-and-Process loop: every
// whole-system simulation calls it.
func DECstationRow(ctx context.Context, p synth.Profile, seed uint64, n int64) (Table1Row, error) {
	g, err := synth.NewGenerator(p, seed)
	if err != nil {
		return Table1Row{}, err
	}
	s := cpi.NewSystem()
	for s.Instructions() < n {
		if err := ctx.Err(); err != nil {
			return Table1Row{}, err
		}
		end := min(s.Instructions()+decstationCheckEvery, n)
		for s.Instructions() < end {
			s.Process(g.Next())
		}
	}
	return Table1Row{
		Suite:      p.Name,
		UserShare:  s.UserShare(),
		OSShare:    s.OSShare(),
		Components: s.Components(),
	}, nil
}

// Render prints the table in the paper's column layout.
func (t *Table1Result) Render() string {
	header := []string{"Benchmark", "User", "OS", "Total Memory CPI", "I-cache", "D-cache", "TLB", "Write"}
	var rows [][]string
	for _, r := range t.Rows {
		c := r.Components
		rows = append(rows, []string{
			r.Suite, pct(r.UserShare), pct(r.OSShare),
			f3(c.Total()), f3(c.Instr), f3(c.Data), f3(c.TLB), f3(c.Write),
		})
	}
	return renderTable("Table 1: Memory System Performance of the SPEC Benchmarks (DECstation 3100 model)", header, rows)
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one suite's memory performance on the DECstation 3100.
type Table3Row struct {
	Suite     string
	UserShare float64
	OSShare   float64
	Instr     float64
	Data      float64
	Write     float64
}

// Table3Result reproduces "Memory Performance of the IBS Workloads".
type Table3Result struct {
	Rows []Table3Row
}

// Table3 simulates IBS under both OS models and the SPEC92 suites on the
// DECstation 3100 model. All 18 workloads run as one map, so no worker
// idles at a suite boundary; each suite's row averages its workloads in
// suite order.
func Table3(opt Options) (*Table3Result, error) {
	opt = opt.withDefaults()
	spec := synth.SPECSuites()
	suites := []struct {
		name     string
		profiles []synth.Profile
	}{
		{"IBS (Mach 3.0)", synth.IBSMach()},
		{"IBS (Ultrix 3.1)", synth.IBSUltrix()},
		{"SPECint92", spec[2:3]},
		{"SPECfp92", spec[3:4]},
	}
	var profiles []synth.Profile
	for _, su := range suites {
		profiles = append(profiles, su.profiles...)
	}
	perRows, err := mapProfiles(profiles, opt, func(ctx context.Context, p synth.Profile) (Table1Row, error) {
		return DECstationRow(ctx, p, opt.Seed, opt.Instructions)
	})
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for _, su := range suites {
		row := Table3Row{Suite: su.name}
		n := float64(len(su.profiles))
		for _, r := range perRows[:len(su.profiles)] {
			row.UserShare += r.UserShare / n
			row.OSShare += r.OSShare / n
			row.Instr += r.Components.Instr / n
			row.Data += r.Components.Data / n
			row.Write += r.Components.Write / n
		}
		perRows = perRows[len(su.profiles):]
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the table.
func (t *Table3Result) Render() string {
	header := []string{"Benchmark", "User", "OS", "I-cache", "D-cache", "Write"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Suite, pct(r.UserShare), pct(r.OSShare), f2(r.Instr), f2(r.Data), f2(r.Write),
		})
	}
	return renderTable("Table 3: Memory Performance of the IBS Workloads (DECstation 3100 model)", header, rows)
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one workload's MPI and execution-time decomposition.
type Table4Row struct {
	OS       string
	Workload string
	// MPI is misses per 100 instructions in an 8-KB direct-mapped I-cache
	// with 32-byte lines.
	MPI float64
	// Component shares of execution time.
	User, Kernel, BSD, X float64
}

// Table4Result reproduces "Detailed I-cache Performance of the IBS
// Workloads".
type Table4Result struct {
	Rows []Table4Row
	// MachAvg, UltrixAvg, SPECAvg are the suite-average MPI values (per 100
	// instructions).
	MachAvg, UltrixAvg, SPECAvg float64
}

// Table4 simulates every IBS workload under Mach in the 8-KB baseline cache,
// plus the Ultrix and SPEC92 averages.
func Table4(opt Options) (*Table4Result, error) {
	opt = opt.withDefaults()
	res := &Table4Result{}
	cfg := BaseL1()
	rows, err := mapRuns(synth.IBSMach(), opt, func(_ context.Context, p synth.Profile, src trace.RunReader) (Table4Row, error) {
		var counts trace.Counts
		st, err := simulateCache(cfg, src, counts.ObserveRun)
		if err != nil {
			return Table4Row{}, err
		}
		return Table4Row{
			OS:       "Mach 3.0",
			Workload: p.Name,
			MPI:      100 * float64(st.Misses) / float64(st.Accesses),
			User:     counts.DomainFraction(trace.User),
			Kernel:   counts.DomainFraction(trace.Kernel),
			BSD:      counts.DomainFraction(trace.BSDServer),
			X:        counts.DomainFraction(trace.XServer),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		res.MachAvg += row.MPI / 8
	}
	ultrix, err := suiteMeanMPI(synth.IBSUltrix(), cfg, opt)
	if err != nil {
		return nil, err
	}
	res.UltrixAvg = 100 * ultrix
	spec, err := suiteMeanMPI(specProfiles(), cfg, opt)
	if err != nil {
		return nil, err
	}
	res.SPECAvg = 100 * spec
	return res, nil
}

// Render prints the table.
func (t *Table4Result) Render() string {
	header := []string{"OS", "Application", "MPI (per 100)", "User", "Kernel", "BSD", "X"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.OS, r.Workload, f2(r.MPI), pct(r.User), pct(r.Kernel), pct(r.BSD), pct(r.X),
		})
	}
	rows = append(rows,
		[]string{"Mach 3.0", "Average", f2(t.MachAvg), "", "", "", ""},
		[]string{"Ultrix 3.1", "Average", f2(t.UltrixAvg), "", "", "", ""},
		[]string{"Ultrix 4.1", "SPEC92 Average", f2(t.SPECAvg), "", "", "", ""},
	)
	return renderTable("Table 4: Detailed I-cache Performance of the IBS Workloads (8-KB DM, 32-B line)", header, rows)
}

// ---------------------------------------------------------------- Table 5

// Table5Result reproduces "CPIinstr for Base System Configurations".
type Table5Result struct {
	// CPIinstr[baseline][suite]: baselines {economy, high-performance},
	// suites {SPEC, IBS}.
	EconomySPEC, EconomyIBS   float64
	HighPerfSPEC, HighPerfIBS float64
}

// Table5 computes the baseline CPIinstr values: an 8-KB direct-mapped L1
// backed directly by each baseline memory system. Each suite replays once
// through a two-engine bank (economy, high-performance); the two engines
// form one content class, so the fan-out driver runs one L1 pass and times
// both from its miss count.
func Table5(opt Options) (*Table5Result, error) {
	opt = opt.withDefaults()
	res := &Table5Result{}
	cfg := BaseL1()
	mkBank := func() ([]fetch.Engine, error) {
		eco, err := fetch.NewBlocking(cfg, memsys.Economy().Memory, 0)
		if err != nil {
			return nil, err
		}
		hp, err := fetch.NewBlocking(cfg, memsys.HighPerformance().Memory, 0)
		if err != nil {
			return nil, err
		}
		return []fetch.Engine{eco, hp}, nil
	}
	for _, suite := range []struct {
		profiles []synth.Profile
		eco, hp  *float64
	}{
		{specProfiles(), &res.EconomySPEC, &res.HighPerfSPEC},
		{ibsProfiles(), &res.EconomyIBS, &res.HighPerfIBS},
	} {
		per, err := mapBanks(suite.profiles, opt, mkBank)
		if err != nil {
			return nil, err
		}
		n := float64(len(per))
		for _, bank := range per {
			*suite.eco += bank[0].CPIinstr() / n
			*suite.hp += bank[1].CPIinstr() / n
		}
	}
	return res, nil
}

// Render prints the table.
func (t *Table5Result) Render() string {
	header := []string{"Configuration Parameters", "Economy", "High Performance"}
	rows := [][]string{
		{"Next Level in Hierarchy", "Main Memory", "Ideal Off-chip Cache"},
		{"Latency to First Word (Cycles)", "30", "12"},
		{"Bandwidth (Bytes/Cycle)", "4", "8"},
		{"CPIinstr (SPEC)", f2(t.EconomySPEC), f2(t.HighPerfSPEC)},
		{"CPIinstr (IBS)", f2(t.EconomyIBS), f2(t.HighPerfIBS)},
	}
	return renderTable("Table 5: CPIinstr for Base System Configurations", header, rows)
}

// ---------------------------------------------------------------- Table 6

// prefetchGrid holds L1 CPIinstr for line sizes × prefetch depths.
type prefetchGrid struct {
	LineSizes []int
	Depths    []int
	// CPI[d][l] is the value for Depths[d] × LineSizes[l].
	CPI [][]float64
}

// Table6Result reproduces "Prefetching": sequential prefetch-on-miss over an
// 8-KB direct-mapped L1 at 16 bytes/cycle.
type Table6Result struct {
	Grid prefetchGrid
}

// table6Cells marks the cells the paper populates; others print "—"
// ("not reasonable, or an increase in CPIinstr").
var table6Cells = map[[2]int]bool{
	{0, 16}: true, {0, 32}: true, {0, 64}: true,
	{1, 16}: true, {1, 32}: true,
	{2, 16}: true,
	{3, 16}: true,
}

// Table6 runs the prefetch grid with the blocking (stall-until-all-returned)
// engine.
func Table6(opt Options) (*Table6Result, error) {
	opt = opt.withDefaults()
	grids, err := runGrids(opt, []int{16, 32, 64}, []int{0, 1, 2, 3}, newBlockingCell)
	if err != nil {
		return nil, err
	}
	return &Table6Result{Grid: grids[0]}, nil
}

// newBlockingCell builds a prefetch-grid cell's blocking engine.
func newBlockingCell(lineSize, depth int) (fetch.Engine, error) {
	return fetch.NewBlocking(baseL1WithLine(lineSize), memsys.L1L2Link(), depth)
}

// runGrids evaluates engine factories across one line-size × depth grid:
// one replay per workload through a bank holding every factory's engine for
// every grid cell, factory by factory in (depth, line) order. It returns
// one grid per factory.
func runGrids(opt Options, lineSizes, depths []int, mks ...func(lineSize, depth int) (fetch.Engine, error)) ([]prefetchGrid, error) {
	grids := make([]prefetchGrid, len(mks))
	for g := range grids {
		grids[g] = prefetchGrid{LineSizes: lineSizes, Depths: depths, CPI: make([][]float64, len(depths))}
		for i := range grids[g].CPI {
			grids[g].CPI[i] = make([]float64, len(lineSizes))
		}
	}
	profiles := ibsProfiles()
	per, err := mapBanks(profiles, opt, func() ([]fetch.Engine, error) {
		engines := make([]fetch.Engine, 0, len(mks)*len(depths)*len(lineSizes))
		for _, mk := range mks {
			for _, d := range depths {
				for _, l := range lineSizes {
					e, err := mk(l, d)
					if err != nil {
						return nil, err
					}
					engines = append(engines, e)
				}
			}
		}
		return engines, nil
	})
	if err != nil {
		return nil, err
	}
	for _, bank := range per {
		k := 0
		for g := range grids {
			for di := range depths {
				for li := range lineSizes {
					grids[g].CPI[di][li] += bank[k].CPIinstr() / float64(len(profiles))
					k++
				}
			}
		}
	}
	return grids, nil
}

// render prints a prefetch grid with the paper's "—" cells.
func (g prefetchGrid) render(title string, populated map[[2]int]bool) string {
	header := []string{"Lines Prefetched"}
	for _, l := range g.LineSizes {
		header = append(header, fmt.Sprintf("%dB line", l))
	}
	var rows [][]string
	for di, d := range g.Depths {
		row := []string{fmt.Sprintf("%d", d)}
		for li, l := range g.LineSizes {
			if populated != nil && !populated[[2]int{d, l}] {
				row = append(row, "—")
				continue
			}
			row = append(row, f3(g.CPI[di][li]))
		}
		rows = append(rows, row)
	}
	return renderTable(title, header, rows)
}

// Render prints the table.
func (t *Table6Result) Render() string {
	return t.Grid.render("Table 6: Prefetching (L1 CPIinstr, 8-KB DM, 16 B/cycle)", table6Cells)
}

// ---------------------------------------------------------------- Table 7

// Table7Result reproduces "Prefetching + Bypassing".
type Table7Result struct {
	NoBypass prefetchGrid
	Bypass   prefetchGrid
}

// table7BypassCells marks the populated "With Bypass Buffers" cells.
var table7BypassCells = map[[2]int]bool{
	{0, 32}: true, {0, 64}: true,
	{1, 16}: true, {1, 32}: true,
	{2, 16}: true,
	{3, 16}: true,
}

// Table7 runs the prefetch grid with and without bypass buffers, as one
// 24-engine bank per workload: Bypass(g, N) caches exactly the lines
// Blocking(g, N) does, so each bypass engine leads its content class and
// the no-bypass half derives from its misses — 12 L1 passes, not 24.
func Table7(opt Options) (*Table7Result, error) {
	opt = opt.withDefaults()
	grids, err := runGrids(opt, []int{16, 32, 64}, []int{0, 1, 2, 3}, newBlockingCell,
		func(lineSize, depth int) (fetch.Engine, error) {
			return fetch.NewBypass(baseL1WithLine(lineSize), memsys.L1L2Link(), depth)
		})
	if err != nil {
		return nil, err
	}
	return &Table7Result{NoBypass: grids[0], Bypass: grids[1]}, nil
}

// Render prints both halves of the table.
func (t *Table7Result) Render() string {
	return t.NoBypass.render("Table 7a: No Bypass Buffers (L1 CPIinstr)", table6Cells) +
		"\n" +
		t.Bypass.render("Table 7b: With Bypass Buffers (L1 CPIinstr)", table7BypassCells)
}

// ---------------------------------------------------------------- Table 8

// Table8Row is one stream-buffer depth's CPIinstr at both bandwidths.
type Table8Row struct {
	Lines int
	CPI16 float64
	CPI32 float64
}

// Table8Result reproduces "Pipelined System with a Stream Buffer".
type Table8Result struct {
	Rows []Table8Row
}

// Table8 runs the pipelined stream-buffer engine; the L1 line size equals
// the L1–L2 bandwidth (16 or 32 bytes), letting the memory system accept a
// request every cycle. A stream engine fills exactly the line it misses on
// at every depth, so the bank's 12 engines form two content classes: two
// L1 passes per workload, each timing its six depths from one miss log.
func Table8(opt Options) (*Table8Result, error) {
	opt = opt.withDefaults()
	depths := []int{0, 1, 3, 6, 12, 18}
	res := &Table8Result{Rows: make([]Table8Row, len(depths))}
	for i, d := range depths {
		res.Rows[i].Lines = d
	}
	profiles := ibsProfiles()
	per, err := mapBanks(profiles, opt, func() ([]fetch.Engine, error) {
		engines := make([]fetch.Engine, 0, 2*len(depths))
		for _, d := range depths {
			e16, err := fetch.NewStream(baseL1WithLine(16), memsys.Transfer{Latency: 6, BytesPerCycle: 16}, d)
			if err != nil {
				return nil, err
			}
			e32, err := fetch.NewStream(baseL1WithLine(32), memsys.Transfer{Latency: 6, BytesPerCycle: 32}, d)
			if err != nil {
				return nil, err
			}
			engines = append(engines, e16, e32)
		}
		return engines, nil
	})
	if err != nil {
		return nil, err
	}
	for _, bank := range per {
		for i := range depths {
			res.Rows[i].CPI16 += bank[2*i].CPIinstr() / float64(len(profiles))
			res.Rows[i].CPI32 += bank[2*i+1].CPIinstr() / float64(len(profiles))
		}
	}
	return res, nil
}

// Render prints the table.
func (t *Table8Result) Render() string {
	header := []string{"Lines in Stream Buffer", "16 B/cycle CPIinstr", "32 B/cycle CPIinstr"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", r.Lines), f3(r.CPI16), f3(r.CPI32)})
	}
	return renderTable("Table 8: Pipelined System with a Stream Buffer", header, rows)
}
