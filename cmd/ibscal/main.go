// Command ibscal reports the calibration status of the synthetic workload
// models: simulated miss ratios for each workload against the targets the
// paper prints (Table 4, Figure 1). It exists because the workload profiles
// in internal/synth are calibrated empirically; re-run it after touching any
// profile parameter.
//
// Usage:
//
//	ibscal [-n instructions] [-sizes] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"ibsim"
	"ibsim/internal/cache"
	"ibsim/internal/cpi"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

func main() {
	n := flag.Int64("n", 2_000_000, "instructions to simulate per workload")
	sizes := flag.Bool("sizes", false, "also print the Figure 1 size sweep")
	cpiFlag := flag.Bool("cpi", false, "also print the Table 1/3 CPI component calibration")
	flag.Parse()

	if err := run(*n, *sizes); err != nil {
		fmt.Fprintln(os.Stderr, "ibscal:", err)
		os.Exit(1)
	}
	if *cpiFlag {
		if err := runCPI(*n); err != nil {
			fmt.Fprintln(os.Stderr, "ibscal:", err)
			os.Exit(1)
		}
	}
}

// runCPI prints the DECstation 3100 component calibration against Tables 1
// and 3.
func runCPI(n int64) error {
	fmt.Println("\n== Table 1: SPEC suites on DECstation 3100 ==")
	targets := map[string][5]float64{ // total, instr, data, tlb, write
		"specint89": {0.285, 0.067, 0.100, 0.044, 0.074},
		"specfp89":  {0.967, 0.100, 0.668, 0.020, 0.179},
		"specint92": {0.271, 0.051, 0.084, 0.073, 0.063},
		"specfp92":  {0.749, 0.053, 0.436, 0.134, 0.126},
	}
	fmt.Printf("%-10s %26s %26s\n", "suite", "target(tot/i/d/tlb/w)", "got(tot/i/d/tlb/w)")
	for _, p := range synth.SPECSuites() {
		c, _, err := ibsim.SimulateSystem(p, n)
		if err != nil {
			return err
		}
		t := targets[p.Name]
		fmt.Printf("%-10s %5.2f/%.3f/%.3f/%.3f/%.3f %5.2f/%.3f/%.3f/%.3f/%.3f\n",
			p.Name, t[0], t[1], t[2], t[3], t[4],
			c.Total(), c.Instr, c.Data, c.TLB, c.Write)
	}
	fmt.Println("\n== Table 3: IBS on DECstation 3100 (targets: Mach .36/.28/.16 user 62%; Ultrix .19/.30/.11 user 76%) ==")
	var mach, ultrix cpi.Components
	var muser, uuser float64
	for _, p := range synth.IBSMach() {
		c, u, err := ibsim.SimulateSystem(p, n)
		if err != nil {
			return err
		}
		mach.Instr += c.Instr / 8
		mach.Data += c.Data / 8
		mach.Write += c.Write / 8
		mach.TLB += c.TLB / 8
		muser += u / 8
	}
	for _, p := range synth.IBSUltrix() {
		c, u, err := ibsim.SimulateSystem(p, n)
		if err != nil {
			return err
		}
		ultrix.Instr += c.Instr / 8
		ultrix.Data += c.Data / 8
		ultrix.Write += c.Write / 8
		ultrix.TLB += c.TLB / 8
		uuser += u / 8
	}
	fmt.Printf("IBS/Mach:   instr=%.3f data=%.3f write=%.3f tlb=%.3f user=%.0f%%\n",
		mach.Instr, mach.Data, mach.Write, mach.TLB, muser*100)
	fmt.Printf("IBS/Ultrix: instr=%.3f data=%.3f write=%.3f tlb=%.3f user=%.0f%%\n",
		ultrix.Instr, ultrix.Data, ultrix.Write, ultrix.TLB, uuser*100)
	return nil
}

// mpi simulates an I-cache over prof's instruction stream and returns misses
// per 100 instructions.
func mpi(prof synth.Profile, cfg cache.Config, n int64) (float64, error) {
	st, err := ibsim.SimulateCache(prof, cfg, n)
	if err != nil {
		return 0, err
	}
	return 100 * float64(st.Misses) / float64(st.Accesses), nil
}

func run(n int64, sizes bool) error {
	base := cache.Config{Size: 8192, LineSize: 32, Assoc: 1}

	targets := map[string]float64{
		"mpeg_play": 4.28, "jpeg_play": 2.39, "gs": 5.15, "verilog": 5.28,
		"gcc": 4.69, "sdet": 6.05, "nroff": 3.99, "groff": 6.51,
	}

	fmt.Printf("== IBS under Mach 3.0 (8-KB DM, 32-B line), %d instr ==\n", n)
	fmt.Printf("%-12s %8s %8s %8s\n", "workload", "target", "got", "err%")
	var sum float64
	for _, p := range synth.IBSMach() {
		got, err := mpi(p, base, n)
		if err != nil {
			return err
		}
		sum += got
		tgt := targets[p.Name]
		fmt.Printf("%-12s %8.2f %8.2f %+7.1f%%\n", p.Name, tgt, got, 100*(got-tgt)/tgt)
	}
	fmt.Printf("%-12s %8.2f %8.2f\n\n", "AVG", 4.79, sum/8)

	sum = 0
	fmt.Println("== IBS under Ultrix 3.1 ==")
	for _, p := range synth.IBSUltrix() {
		got, err := mpi(p, base, n)
		if err != nil {
			return err
		}
		sum += got
		fmt.Printf("%-12s %8s %8.2f\n", p.Name, "-", got)
	}
	fmt.Printf("%-12s %8.2f %8.2f\n\n", "AVG", 3.52, sum/8)

	fmt.Println("== SPEC92 (Gee et al. sizes: eqntott small, espresso medium, gcc large) ==")
	specTargets := map[string]float64{"eqntott": 0.2, "espresso": 0.8, "spec_gcc": 2.3}
	sum = 0
	for _, p := range synth.SPEC92() {
		got, err := mpi(p, base, n)
		if err != nil {
			return err
		}
		sum += got
		fmt.Printf("%-12s %8.2f %8.2f\n", p.Name, specTargets[p.Name], got)
	}
	fmt.Printf("%-12s %8.2f %8.2f  (suite avg target 1.10)\n\n", "AVG", 1.10, sum/3)

	// Domain share check for one workload.
	g, err := synth.NewGenerator(synth.IBSMach()[0], 0)
	if err != nil {
		return err
	}
	for g.Instructions() < 500000 {
		g.Next()
	}
	fmt.Printf("mpeg_play shares: user %.2f kernel %.2f bsd %.2f x %.2f (want .40/.23/.30/.07)\n\n",
		g.DomainShare(trace.User), g.DomainShare(trace.Kernel),
		g.DomainShare(trace.BSDServer), g.DomainShare(trace.XServer))

	if sizes {
		fmt.Println("== Figure 1 sweep: suite-average MPI (DM, 32-B line) ==")
		fmt.Printf("%-8s %10s %10s\n", "size", "SPEC92", "IBS/Mach")
		for _, kb := range []int{8, 16, 32, 64, 128, 256} {
			cfg := cache.Config{Size: kb * 1024, LineSize: 32, Assoc: 1}
			var specSum float64
			for _, p := range synth.SPEC92() {
				got, err := mpi(p, cfg, n)
				if err != nil {
					return err
				}
				specSum += got
			}
			var ibsSum float64
			for _, p := range synth.IBSMach() {
				got, err := mpi(p, cfg, n)
				if err != nil {
					return err
				}
				ibsSum += got
			}
			fmt.Printf("%-8d %10.2f %10.2f\n", kb, specSum/3, ibsSum/8)
		}
	}
	return nil
}
