// Command ibscheck is the simulator-verification and benchmark-regression
// harness: it runs internal/check's invariant and differential checks,
// times the pinned benchmark stages, compares CPI/MPI against the committed
// goldens, and writes a machine-readable report.
//
// Usage:
//
//	ibscheck                       # full run at the pinned golden scale
//	ibscheck -n 1000000            # larger run (golden comparison skipped)
//	ibscheck -o perf/BENCH.json    # report path (default BENCH_ibsim.json)
//	ibscheck -print-golden         # emit the golden.go literal for this run
//	ibscheck -faults               # chaos mode: seeded fault-injection suite
//	ibscheck -faults -match '^chaos/crash-'   # only the crash-consistency scenarios
//	ibscheck -match '^sampling/'   # only the sampling checks, no bench stages
//	ibscheck -match '^differential/(columnar|blocks)'   # only the columnar differentials
//	ibscheck -match '^differential/seek'                # only the checkpoint-seek differential
//
// Every check runs panic-isolated: a check that panics fails on its own and
// the run goes on. The exit status is 0 only when every check passes and
// every tracked stage is within golden tolerance; it is 2 for a harness
// failure, a usage error, or a -match that selects no check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ibsim/internal/atomicio"
	"ibsim/internal/check"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ibscheck", flag.ContinueOnError)
	n := fs.Int64("n", check.PinnedInstructions, "per-workload instruction budget")
	seed := fs.Uint64("seed", 0, "seed offset (0 = calibrated profile seeds)")
	out := fs.String("o", "BENCH_ibsim.json", "report output path (empty disables)")
	printGolden := fs.Bool("print-golden", false, "print the golden.go literal for this run's stage values and exit")
	benchOnly := fs.Bool("bench-only", false, "skip invariant/differential checks, run only the bench stages")
	faults := fs.Bool("faults", false, "run only the seeded fault-injection (chaos) suite")
	match := fs.String("match", "", "regexp selecting the checks (or, with -faults, the scenarios) to run; skips the bench stages")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ibscheck: unexpected argument %q (select checks with -match)\n", fs.Arg(0))
		return 2
	}
	if (*match != "" || *faults) && (*benchOnly || *printGolden) {
		fmt.Fprintln(os.Stderr, "ibscheck: -match and -faults select checks; -bench-only and -print-golden run none")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibscheck: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ibscheck: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ibscheck: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ibscheck: -memprofile: %v\n", err)
			}
		}()
	}

	opt := check.Options{Instructions: *n, Seed: *seed, Match: *match}
	start := time.Now()

	table, what := check.Checks, "checks"
	if *faults {
		table, what = check.Faults, "fault scenarios"
	}
	var results []check.Result
	if !*benchOnly && !*printGolden {
		var err error
		results, err = check.Run(opt, table)
		for _, r := range results {
			fmt.Printf("%-4s %-42s %s (%.2fs)\n", verdict(r.Passed), r.Name, r.Detail, r.Seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibscheck: harness failure: %v\n", err)
			return 2
		}
	}

	var stages []check.Stage
	if !*faults && *match == "" {
		var err error
		if stages, err = check.RunBench(opt); err != nil {
			fmt.Fprintf(os.Stderr, "ibscheck: %v\n", err)
			return 2
		}
		if *printGolden {
			fmt.Printf("// Measured at -n %d -seed %d.\n%s", *n, *seed, check.GoldenLiteral(stages))
			return 0
		}
	}
	stagesOK := true
	for _, s := range stages {
		fmt.Printf("%-4s bench/%-36s %s (%.2fs)\n", verdict(s.Passed), s.Name, s.Detail, s.Seconds)
		stagesOK = stagesOK && s.Passed
	}

	report := check.Report{
		Schema:       "ibsim-bench/v1",
		Instructions: *n,
		Seed:         *seed,
		GoldenScale:  *n == check.PinnedInstructions && *seed == 0,
		Checks:       results,
		Stages:       stages,
		Passed:       check.AllPassed(results) && stagesOK,
		TotalSeconds: time.Since(start).Seconds(),
	}
	if err := writeReport(*out, report); err != nil {
		fmt.Fprintf(os.Stderr, "ibscheck: %v\n", err)
		return 2
	}
	if !report.Passed {
		fmt.Println("FAIL")
		return 1
	}
	if stages != nil {
		fmt.Printf("PASS (%d checks, %d stages, %.2fs)\n", len(results), len(stages), report.TotalSeconds)
	} else {
		fmt.Printf("PASS (%d %s, %.2fs)\n", len(results), what, report.TotalSeconds)
	}
	return 0
}

// writeReport marshals and atomically writes the report (path "" disables),
// so an interrupted run never leaves a half-written or corrupt report where
// CI would read one.
func writeReport(path string, report check.Report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling report: %w", err)
	}
	if err := atomicio.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("report: %s\n", path)
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
