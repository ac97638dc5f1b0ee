package experiments

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// SPECContrastResult reproduces the paper's closing counterfactual ("Our
// conclusions would be very different if we had used the SPEC benchmark
// suite"): the same Section 5 design process driven by SPEC92 instead of
// IBS. The paper reports, for SPEC: an optimal on-chip L2 line size of (at
// least) 256 bytes, associativity buying a mere 0.026 CPIinstr, an optimal
// L2 configuration totaling only 0.083 CPIinstr, and an optimal 8-KB L1
// line size of 128 bytes at 16 bytes/cycle — double the IBS optimum.
type SPECContrastResult struct {
	// OptimalL2Line is the best L2 line size for SPEC (64-KB L2, economy).
	OptimalL2Line int
	// AssocGain is the CPIinstr reduction from direct-mapped to 8-way at
	// the optimal line size (the paper: "a mere 0.026").
	AssocGain float64
	// BestTotal is the total CPIinstr of the optimized L2 configuration
	// before any L1–L2 interface work (the paper: 0.083).
	BestTotal float64
	// OptimalL1Line is the best 8-KB L1 line size at 16 B/cycle for SPEC
	// (the paper: 128 bytes); IBSOptimalL1Line is the IBS counterpart.
	OptimalL1Line    int
	IBSOptimalL1Line int
}

// SPECContrast runs the counterfactual.
func SPECContrast(opt Options) (*SPECContrastResult, error) {
	opt = opt.withDefaults()
	res := &SPECContrastResult{}
	spec := specProfiles()
	mem := memsys.Economy().Memory

	// L2 line-size sweep, 64-KB direct-mapped, SPEC.
	lines := []int{32, 64, 128, 256, 512}
	bestLineCPI := -1.0
	for _, line := range lines {
		cpi, err := l2CPI(spec, cache.Config{Size: 64 * 1024, LineSize: line, Assoc: 1}, mem, opt)
		if err != nil {
			return nil, err
		}
		if bestLineCPI < 0 || cpi < bestLineCPI {
			bestLineCPI = cpi
			res.OptimalL2Line = line
		}
	}
	// Associativity gain at the optimal line size.
	dm := bestLineCPI
	eight, err := l2CPI(spec, cache.Config{Size: 64 * 1024, LineSize: res.OptimalL2Line, Assoc: 8}, mem, opt)
	if err != nil {
		return nil, err
	}
	res.AssocGain = dm - eight

	// Best total: L1 (behind the on-chip link) + optimized L2.
	l1, err := l1CPI(spec, BaseL1(), memsys.L1L2Link(), opt)
	if err != nil {
		return nil, err
	}
	res.BestTotal = l1 + eight

	// Optimal L1 line sizes at 16 B/cycle for both suites.
	optimalL1 := func(profiles []synth.Profile) (int, error) {
		best, bestCPI := 0, -1.0
		for _, line := range []int{16, 32, 64, 128, 256} {
			cpi, _, err := suiteMeanEngineCPI(profiles, opt, func() (fetch.Engine, error) {
				return fetch.NewBlocking(baseL1WithLine(line), memsys.L1L2Link(), 0)
			})
			if err != nil {
				return 0, err
			}
			if bestCPI < 0 || cpi < bestCPI {
				best, bestCPI = line, cpi
			}
		}
		return best, nil
	}
	if res.OptimalL1Line, err = optimalL1(spec); err != nil {
		return nil, err
	}
	if res.IBSOptimalL1Line, err = optimalL1(ibsProfiles()); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the counterfactual summary.
func (r *SPECContrastResult) Render() string {
	header := []string{"Design decision (driven by SPEC92)", "Paper", "Measured"}
	rows := [][]string{
		{"optimal on-chip L2 line size", "≥256 B", fmt.Sprintf("%d B", r.OptimalL2Line)},
		{"CPIinstr gained by 8-way L2 associativity", "0.026", f3(r.AssocGain)},
		{"total CPIinstr of the optimized L2 config", "0.083", f3(r.BestTotal)},
		{"optimal 8-KB L1 line at 16 B/cycle (SPEC)", "128 B", fmt.Sprintf("%d B", r.OptimalL1Line)},
		{"optimal 8-KB L1 line at 16 B/cycle (IBS)", "64 B", fmt.Sprintf("%d B", r.IBSOptimalL1Line)},
	}
	return renderTable("SPEC counterfactual: the design SPEC92 would have led to (paper §5 summary)", header, rows)
}

// ---------------------------------------------------- Dual-ported cache

// DualPortResult reproduces the Figure 6 aside: "low-bandwidth systems can
// achieve similar performance improvements by implementing a dual-ported
// cache. The dual-ported cache allows the processor to continue execution as
// soon as the missing instruction is returned from memory, hiding fill costs
// and reducing the effective latency." A dual-ported cache at 4 B/cycle is
// our Bypass engine with no prefetch; the comparison is against simply
// buying more bandwidth.
type DualPortResult struct {
	// Blocking4 is the stall-until-refilled CPI at 4 B/cycle.
	Blocking4 float64
	// DualPort4 is the bypass (resume-on-word) CPI at 4 B/cycle.
	DualPort4 float64
	// Blocking16 is the plain CPI at 16 B/cycle — what the extra bandwidth
	// would have bought instead.
	Blocking16 float64
}

// ExtensionDualPort measures all three on the IBS suite (8-KB DM, 32-B
// line, 6-cycle latency).
func ExtensionDualPort(opt Options) (*DualPortResult, error) {
	opt = opt.withDefaults()
	res := &DualPortResult{}
	profiles := ibsProfiles()
	slow := memsys.Transfer{Latency: 6, BytesPerCycle: 4}
	fast := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	var err error
	if res.Blocking4, _, err = suiteMeanEngineCPI(profiles, opt, func() (fetch.Engine, error) {
		return fetch.NewBlocking(BaseL1(), slow, 0)
	}); err != nil {
		return nil, err
	}
	if res.DualPort4, _, err = suiteMeanEngineCPI(profiles, opt, func() (fetch.Engine, error) {
		return fetch.NewBypass(BaseL1(), slow, 0)
	}); err != nil {
		return nil, err
	}
	if res.Blocking16, _, err = suiteMeanEngineCPI(profiles, opt, func() (fetch.Engine, error) {
		return fetch.NewBlocking(BaseL1(), fast, 0)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *DualPortResult) Render() string {
	header := []string{"Configuration", "L1 CPIinstr"}
	rows := [][]string{
		{"4 B/cycle, stall until refilled", f3(r.Blocking4)},
		{"4 B/cycle, dual-ported (resume on missing word)", f3(r.DualPort4)},
		{"16 B/cycle, stall until refilled (4x the bandwidth)", f3(r.Blocking16)},
	}
	return renderTable("Extension: dual-ported cache vs raw bandwidth (Figure 6 aside)", header, rows)
}

// ---------------------------------------------------- Write-buffer depth

// WriteBufferRow is one depth's CPIwrite.
type WriteBufferRow struct {
	Depth    int
	CPIwrite float64
}

// WriteBufferResult sweeps the DECstation's write-buffer depth — the CPU
// component of Table 1's CPIwrite. The 3100 shipped with 4 entries; this
// ablation shows what deeper buffering would have bought.
type WriteBufferResult struct {
	Workload string
	Rows     []WriteBufferRow
}

// AblationWriteBuffer sweeps depths on specint89 (the suite with the
// paper's clearest CPIwrite).
func AblationWriteBuffer(opt Options) (*WriteBufferResult, error) {
	opt = opt.withDefaults()
	p, err := synth.Lookup("specint89")
	if err != nil {
		return nil, err
	}
	res := &WriteBufferResult{Workload: p.Name}
	for _, depth := range []int{1, 2, 4, 8, 16} {
		c, err := writeCPIAtDepth(p, depth, opt)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, WriteBufferRow{Depth: depth, CPIwrite: c})
	}
	return res, nil
}

// writeCPIAtDepth runs the DECstation model with a modified buffer depth.
// The cpi.System hardwires the machine constants, so the write buffer is
// re-simulated here on the same reference stream with the same service
// model.
func writeCPIAtDepth(p synth.Profile, depth int, opt Options) (float64, error) {
	g, err := synth.NewGenerator(p, opt.Seed)
	if err != nil {
		return 0, err
	}
	const writeCycles = 6
	var wb []int64
	var lastEnd, stall, instr int64
	now := func() int64 { return instr + stall }
	for instr < opt.Instructions {
		r := g.Next()
		switch r.Kind {
		case trace.IFetch:
			instr++
		case trace.DWrite:
			t := now()
			for len(wb) > 0 && wb[0] <= t {
				wb = wb[1:]
			}
			if len(wb) >= depth {
				stall += wb[0] - t
				t = wb[0]
				wb = wb[1:]
			}
			start := t
			if lastEnd > start {
				start = lastEnd
			}
			lastEnd = start + writeCycles
			wb = append(wb, lastEnd)
		}
	}
	return float64(stall) / float64(instr), nil
}

// Render prints the sweep.
func (r *WriteBufferResult) Render() string {
	header := []string{"Write-buffer depth", "CPIwrite"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d entries", row.Depth), f3(row.CPIwrite)})
	}
	title := fmt.Sprintf("Ablation: write-buffer depth (%s; the DECstation 3100 shipped 4 entries)", r.Workload)
	return renderTable(title, header, rows)
}
