// Command ibstables regenerates the paper's tables and figures.
//
// Usage:
//
//	ibstables                         # everything
//	ibstables -experiment table4      # one exhibit
//	ibstables -experiment table1,figure3
//	ibstables -n 4000000 -trials 5    # scale the simulation
//	ibstables -manifest run/ -o all.txt
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 table8
// figure1 figure2 figure3 figure4 figure5 figure6 figure7 all
//
// The run is resilient: SIGINT/SIGTERM cancels in-flight workers and exits
// 130, a failing or timed-out exhibit is reported and skipped instead of
// aborting the rest, and with -manifest every completed exhibit is
// checkpointed atomically so an interrupted run resumes where it stopped
// and produces byte-identical final output.
//
// Exit codes are typed so orchestrators can tell failure classes apart:
// 0 success, 1 exhibit failure, 2 usage error, 124 every failure was a
// per-exhibit -timeout expiry, 130 interrupted by SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ibsim"
	"ibsim/internal/atomicio"
	"ibsim/internal/manifest"
)

// Typed exit codes. exitTimeout follows the timeout(1) convention (124);
// exitInterrupt the shell's 128+SIGINT.
const (
	exitOK        = 0
	exitFailure   = 1
	exitUsage     = 2
	exitTimeout   = 124
	exitInterrupt = 130
)

func main() {
	os.Exit(run())
}

// classifyExit folds the per-exhibit outcome lists into the process exit
// code: any hard failure wins over timeouts (the run is broken, not merely
// slow), timeouts alone report exitTimeout, otherwise success.
func classifyExit(failed, timedOut []string) int {
	switch {
	case len(failed) > 0:
		return exitFailure
	case len(timedOut) > 0:
		return exitTimeout
	default:
		return exitOK
	}
}

// run carries main's body so profile-writing defers fire before exit.
func run() int {
	which := flag.String("experiment", "all", "comma-separated exhibits to regenerate (table1..table8, figure1..figure7, extension names, all)")
	ext := flag.Bool("extensions", false, "also run the beyond-the-paper extension/ablation studies")
	n := flag.Int64("n", 2_000_000, "instructions simulated per workload")
	trials := flag.Int("trials", 5, "trials for variability experiments (figure5)")
	quiet := flag.Bool("q", false, "suppress progress timing")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	chart := flag.Bool("chart", false, "render figure1/figure7 as ASCII stacked-bar charts (as in the paper)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	manifestDir := flag.String("manifest", "", "checkpoint directory: completed exhibits persist there and an interrupted run resumes from it")
	outFile := flag.String("o", "", "also write the concatenated exhibit outputs to this file (atomically, on full success)")
	timeout := flag.Duration("timeout", 0, "per-exhibit wall-clock budget (0 = unlimited)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibstables: -cpuprofile: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ibstables: -cpuprofile: %v\n", err)
			return exitUsage
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ibstables: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ibstables: -memprofile: %v\n", err)
			}
		}()
	}

	opt := ibsim.Options{Instructions: *n, Trials: *trials}
	names := ibsim.ExhibitNames()
	if *ext {
		names = append(names, ibsim.ExtensionNames()...)
	}
	if *which != "all" {
		names = nil
		for _, raw := range strings.Split(*which, ",") {
			name := strings.ToLower(strings.TrimSpace(raw))
			if name == "" {
				continue
			}
			if !ibsim.IsExhibit(name) {
				fmt.Fprintf(os.Stderr, "ibstables: unknown experiment %q (have %s; %s; all)\n",
					raw, strings.Join(ibsim.ExhibitNames(), ", "), strings.Join(ibsim.ExtensionNames(), ", "))
				return exitUsage
			}
			names = append(names, name)
		}
		if len(names) == 0 {
			fmt.Fprintln(os.Stderr, "ibstables: -experiment names no exhibit")
			return exitUsage
		}
	}

	var man *manifest.Manifest
	if *manifestDir != "" {
		var resumed int
		var err error
		man, resumed, err = manifest.Open(*manifestDir, manifest.Params{
			Instructions: *n, Trials: *trials, CSV: *csv, Chart: *chart,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibstables: -manifest: %v\n", err)
			return exitUsage
		}
		if resumed > 0 {
			fmt.Fprintf(os.Stderr, "ibstables: resuming: %d exhibit(s) already complete in %s\n", resumed, *manifestDir)
		}
	}

	var outputs []string
	var failed, timedOut []string
	for _, name := range names {
		if ctx.Err() != nil {
			return interrupted(name, man != nil)
		}
		if man != nil {
			if out, ok := man.Get(name); ok {
				outputs = append(outputs, out)
				fmt.Println(out)
				if !*quiet {
					fmt.Printf("[%s restored from manifest]\n\n", name)
				}
				continue
			}
		}
		start := time.Now()
		ectx := ctx
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ectx, cancel = context.WithTimeout(ctx, *timeout)
		}
		eopt := opt
		eopt.Context = ectx
		out, err := ibsim.RenderExhibit(name, eopt, *chart)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return interrupted(name, man != nil)
			}
			// One bad exhibit — a worker panic, a timeout, a bad config —
			// fails that exhibit only; the rest of the run proceeds. A
			// deadline expiry is tracked apart from hard failures so the
			// exit code can tell the classes apart.
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "ibstables: %s exceeded its %v budget: %v (continuing)\n", name, *timeout, err)
				timedOut = append(timedOut, name)
			} else {
				fmt.Fprintf(os.Stderr, "ibstables: %s failed: %v (continuing)\n", name, err)
				failed = append(failed, name)
			}
			continue
		}
		if *csv {
			out = toCSV(out)
		}
		if man != nil {
			if err := man.Put(name, out); err != nil {
				fmt.Fprintf(os.Stderr, "ibstables: checkpointing %s: %v\n", name, err)
				return exitFailure
			}
		}
		outputs = append(outputs, out)
		fmt.Println(out)
		if !*quiet {
			fmt.Printf("[%s regenerated in %.1fs]\n\n", name, time.Since(start).Seconds())
		}
	}
	if len(failed)+len(timedOut) > 0 {
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "ibstables: %d exhibit(s) failed: %s\n", len(failed), strings.Join(failed, ", "))
		}
		if len(timedOut) > 0 {
			fmt.Fprintf(os.Stderr, "ibstables: %d exhibit(s) timed out: %s\n", len(timedOut), strings.Join(timedOut, ", "))
		}
		return classifyExit(failed, timedOut)
	}
	if *outFile != "" {
		data := []byte(strings.Join(outputs, "\n") + "\n")
		if err := atomicio.WriteFile(*outFile, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ibstables: -o: %v\n", err)
			return exitFailure
		}
	}
	return exitOK
}

// interrupted reports a SIGINT/SIGTERM shutdown and returns the
// conventional 128+SIGINT exit code.
func interrupted(name string, hasManifest bool) int {
	msg := fmt.Sprintf("ibstables: interrupted during %s", name)
	if hasManifest {
		msg += "; completed exhibits are checkpointed — rerun with the same -manifest to resume"
	}
	fmt.Fprintln(os.Stderr, msg)
	return exitInterrupt
}
