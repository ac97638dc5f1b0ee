// Command ibsgen generates IBSTRACE files from the synthetic workload
// models — our equivalent of the address traces the paper's authors
// distributed to the research community. Traces are written in the
// per-reference record format by default, or as IBSTRACE/v3 columnar files
// (-columnar) for the zero-copy block replay paths.
//
// Usage:
//
//	ibsgen -workload gs -n 4000000 -o gs.ibstrace
//	ibsgen -workload gs -n 100000000 -columnar     # gs.ibsc, block format
//	ibsgen -all -n 1000000 -dir traces/
//	ibsgen -info gs.ibstrace                       # record or columnar
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ibsim"
	"ibsim/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to trace (see ibsim -list)")
		all      = flag.Bool("all", false, "generate traces for every IBS workload (both OSes)")
		n        = flag.Int64("n", 4_000_000, "instructions per trace")
		out      = flag.String("o", "", "output file (default <workload>.ibstrace, or .ibsc with -columnar)")
		dir      = flag.String("dir", ".", "output directory for -all")
		columnar = flag.Bool("columnar", false, "write IBSTRACE/v3 columnar files (instruction fetches only)")
		info     = flag.String("info", "", "print a trace file's summary instead of generating")
	)
	flag.Parse()

	ext := ".ibstrace"
	if *columnar {
		ext = ".ibsc"
	}
	switch {
	case *info != "":
		if err := printInfo(*info); err != nil {
			fail(err)
		}
	case *all:
		for _, w := range append(ibsim.IBSMach(), ibsim.IBSUltrix()...) {
			suffix := ""
			if w.OS == ibsim.Monolithic {
				suffix = "-ultrix"
			}
			path := filepath.Join(*dir, w.Name+suffix+ext)
			if err := generate(w, *n, path, *columnar); err != nil {
				fail(err)
			}
		}
	case *workload != "":
		w, err := ibsim.LoadWorkload(*workload)
		if err != nil {
			fail(err)
		}
		path := *out
		if path == "" {
			path = filepath.Base(*workload) + ext
		}
		if err := generate(w, *n, path, *columnar); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(w ibsim.Workload, n int64, path string, columnar bool) error {
	if columnar {
		blocks, err := ibsim.WriteColumnarTraceFile(path, w, n)
		if err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d instructions in %d columnar blocks, %.1f MB (%.2f bytes/instruction)\n",
			path, n, blocks, float64(st.Size())/1e6, float64(st.Size())/float64(n))
		return nil
	}
	written, err := ibsim.WriteTraceFile(path, w, n)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d references (%d instructions), %.1f MB (%.2f bytes/ref)\n",
		path, written, n, float64(st.Size())/1e6, float64(st.Size())/float64(written))
	return nil
}

func printInfo(path string) error {
	columnar, err := ibsim.IsColumnarTraceFile(path)
	if err != nil {
		return err
	}
	if columnar {
		return printColumnarInfo(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening trace file: %w", err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	// One pass tallies the references; a damaged file is summarized up to
	// its first bad record.
	var c trace.Counts
	for ref, ok := r.Next(); ok; ref, ok = r.Next() {
		c.Observe(ref)
	}
	if err := r.Err(); err != nil {
		if c.Total == 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "ibsgen: WARNING: %s is damaged (%v); summarizing the salvaged %d-reference prefix\n",
			path, err, c.Total)
	}
	total := float64(c.Total)
	fmt.Printf("%s: %d references\n", path, c.Total)
	fmt.Printf("  ifetch %d (%.1f%%), dread %d (%.1f%%), dwrite %d (%.1f%%)\n",
		c.ByKind[0], 100*float64(c.ByKind[0])/total,
		c.ByKind[1], 100*float64(c.ByKind[1])/total,
		c.ByKind[2], 100*float64(c.ByKind[2])/total)
	fmt.Printf("  user %.1f%%, kernel %.1f%%, bsd %.1f%%, x %.1f%%\n",
		100*float64(c.ByDomain[0])/total, 100*float64(c.ByDomain[1])/total,
		100*float64(c.ByDomain[2])/total, 100*float64(c.ByDomain[3])/total)
	return nil
}

// printColumnarInfo summarizes an IBSTRACE/v3 file: every reference is an
// instruction fetch, so the interesting shape is the block structure and the
// per-block domain mix the index can't see — ibstrace -file digs deeper.
func printColumnarInfo(path string) error {
	cf, dmg, err := ibsim.SalvageColumnarTrace(path)
	if err != nil {
		return err
	}
	defer cf.Close()
	if dmg.Damaged() {
		fmt.Fprintf(os.Stderr, "ibsgen: WARNING: %s is damaged (%v); dropped %d block(s) / %d instructions, summarizing the salvaged remainder\n",
			path, dmg.Err, dmg.DroppedBlocks, dmg.DroppedRefs)
	}
	var domains [4]int64
	var buf []ibsim.Run
	for i := 0; i < cf.NumBlocks(); i++ {
		if buf, err = cf.BlockRuns(i, buf); err != nil {
			return err
		}
		for _, r := range buf {
			domains[r.Domain] += r.Len
		}
	}
	total := cf.Refs()
	fmt.Printf("%s: %d instruction fetches in %d columnar blocks (all ifetch; columnar traces carry no data references)\n",
		path, total, cf.NumBlocks())
	fmt.Printf("  user %.1f%%, kernel %.1f%%, bsd %.1f%%, x %.1f%%\n",
		100*float64(domains[0])/float64(total), 100*float64(domains[1])/float64(total),
		100*float64(domains[2])/float64(total), 100*float64(domains[3])/float64(total))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ibsgen:", err)
	os.Exit(1)
}
