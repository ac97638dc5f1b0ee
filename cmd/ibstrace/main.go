// Command ibstrace characterizes traces the way the paper's authors
// characterized theirs: footprints, working sets, fully-associative LRU
// miss-ratio curves, and sequential run lengths. It accepts an IBSTRACE
// record file (produced by ibsgen), an IBSTRACE/v3 columnar file, or a
// workload name to synthesize on the fly, and converts between the two
// on-disk formats.
//
// Usage:
//
//	ibstrace -file gs.ibstrace
//	ibstrace -file gs.ibsc                       # columnar: block statistics
//	ibstrace -file gs.ibstrace -convert gs.ibsc  # record -> columnar (v3)
//	ibstrace -file gs.ibsc -convert gs.ibstrace  # columnar -> record
//	ibstrace -workload verilog -n 2000000
//	ibstrace -workload gs -compare eqntott       # side-by-side
//	ibstrace -workload gs -seek 1234567          # checkpoint-seek spot-check
//
// The mode is the first of -seek, -convert, -file and -workload that is set,
// and each mode reads only its own flags: -seek reads -workload and -n,
// -convert reads -file, -file reads -line, and -workload reads -compare, -n
// and -line. Setting any other flag is a usage error that names it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"ibsim"
)

// modes lists each mode, in the order one is chosen, with the other flags it
// reads.
var modes = []struct {
	name  string
	reads []string
}{
	{"seek", []string{"workload", "n"}},
	{"convert", []string{"file"}},
	{"file", []string{"line"}},
	{"workload", []string{"compare", "n", "line"}},
}

// chooseMode returns the mode that the names of the set flags select, "" if
// they set none, or an error naming the first set flag that the mode does
// not read.
func chooseMode(set []string) (string, error) {
	for _, m := range modes {
		if !slices.Contains(set, m.name) {
			continue
		}
		for _, name := range set {
			if name != m.name && !slices.Contains(m.reads, name) {
				return "", fmt.Errorf("-%s is not used with -%s", name, m.name)
			}
		}
		return m.name, nil
	}
	return "", nil
}

func main() {
	var (
		file     = flag.String("file", "", "IBSTRACE file to analyze (record or columnar)")
		convert  = flag.String("convert", "", "convert -file to this path (direction follows the source format)")
		workload = flag.String("workload", "", "workload to synthesize and analyze")
		compare  = flag.String("compare", "", "second workload to analyze side by side")
		n        = flag.Int64("n", 2_000_000, "instructions when synthesizing")
		line     = flag.Int("line", 32, "line granularity in bytes")
		seek     = flag.Int64("seek", -1, "spot-check: compare the reference at this instruction index reached by checkpoint seek vs sequential generation (needs -workload)")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode, err := chooseMode(set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibstrace:", err)
	}
	if mode == "" {
		flag.Usage()
		os.Exit(2)
	}

	switch mode {
	case "seek":
		if *workload == "" {
			fail(fmt.Errorf("-seek needs -workload (checkpoints are generator states, not trace data)"))
		}
		if err := seekCheck(os.Stdout, *workload, *n, *seek); err != nil {
			fail(err)
		}
	case "convert":
		if *file == "" {
			fail(fmt.Errorf("-convert needs -file as the source"))
		}
		if err := convertFile(*file, *convert); err != nil {
			fail(err)
		}
	case "file":
		columnar, err := ibsim.IsColumnarTraceFile(*file)
		if err != nil {
			fail(err)
		}
		if columnar {
			if err := reportColumnar(*file); err != nil {
				fail(err)
			}
			return
		}
		refs, complete, err := ibsim.SalvageTraceFile(*file)
		if !complete {
			if len(refs) == 0 {
				fail(err)
			}
			// Damaged but salvageable: analyze the valid prefix, loudly.
			fmt.Fprintf(os.Stderr, "ibstrace: WARNING: %s is damaged (%v); analyzing the salvaged %d-reference prefix\n",
				*file, err, len(refs))
		}
		a, err := ibsim.AnalyzeLocality(refs, *line)
		if err != nil {
			fail(err)
		}
		fmt.Printf("== %s ==\n%s", *file, a.Report())
		printRunStats(ibsim.SummarizeRuns(ibsim.CompactTrace(refs)))
	case "workload":
		if err := report(*workload, *line, *n); err != nil {
			fail(err)
		}
		if *compare != "" {
			fmt.Println()
			if err := report(*compare, *line, *n); err != nil {
				fail(err)
			}
		}
	}
}

// convertFile re-encodes src as dst, picking the direction from the source
// header: a record file becomes a columnar one, a columnar file expands back
// to records.
func convertFile(src, dst string) error {
	columnar, err := ibsim.IsColumnarTraceFile(src)
	if err != nil {
		return err
	}
	if columnar {
		written, err := ibsim.ConvertColumnarToTrace(src, dst)
		if err != nil {
			return err
		}
		st, err := os.Stat(dst)
		if err != nil {
			return err
		}
		fmt.Printf("%s: expanded to %d instruction-fetch records in %s (%.1f MB)\n",
			src, written, dst, float64(st.Size())/1e6)
		return nil
	}
	rs, err := ibsim.ConvertTraceToColumnar(src, dst)
	if err != nil {
		return err
	}
	st, err := os.Stat(dst)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions in %d runs -> %s (%.1f MB, %.2f bytes/instruction)\n",
		src, rs.Instructions, rs.Runs, dst, float64(st.Size())/1e6,
		float64(st.Size())/float64(rs.Instructions))
	return nil
}

// reportColumnar prints a columnar file's block statistics: the per-block
// index view, the compression anatomy (delta-width histogram), and the
// sequential-run structure. Damaged files are salvaged loudly, and the
// statistics describe the surviving blocks.
func reportColumnar(path string) error {
	cf, dmg, err := ibsim.SalvageColumnarTrace(path)
	if err != nil {
		return err
	}
	defer cf.Close()
	if dmg.Damaged() {
		how := "footer index intact"
		if dmg.IndexRebuilt {
			how = "index rebuilt by forward scan"
		}
		fmt.Fprintf(os.Stderr, "ibstrace: WARNING: %s is damaged (%v); dropped %d block(s) / %d instructions (%s), reporting the salvaged remainder\n",
			path, dmg.Err, dmg.DroppedBlocks, dmg.DroppedRefs, how)
	}
	st, err := cf.Stats()
	if err != nil {
		return err
	}
	mode := "sequential reads"
	if cf.Mapped() {
		mode = "mmap (zero-copy)"
	}
	fmt.Printf("== %s ==\n", path)
	fmt.Printf("format:               IBSTRACE/v3 columnar, %s\n", mode)
	fmt.Printf("blocks:               %d (target %d bytes/block)\n", st.Blocks, cf.BlockBytes())
	fmt.Printf("instructions:         %d in %d runs\n", st.Refs, st.Runs)
	fmt.Printf("file size:            %.1f MB (%d payload bytes, %.2f bytes/instruction)\n",
		float64(st.FileBytes)/1e6, st.PayloadBytes, st.BytesPerRef)
	fmt.Printf("salvaged blocks:      %d dropped\n", dmg.DroppedBlocks)
	fmt.Printf("delta widths:        ")
	for w, c := range st.DeltaWidth {
		if c > 0 {
			fmt.Printf(" %dB:%d", w+1, c)
		}
	}
	fmt.Println()
	// The run structure determines how much the bulk replay path can win.
	printRunStats(st.RunStats)
	return nil
}

// seekCheck is the checkpoint-seek spot-check: it reads instruction i of
// the workload's stream by plain sequential generation, then reads the
// whole stream once with a checkpoint index attached and reads instruction
// i again, which restores the nearest checkpoint at or below i and
// fast-forwards. The index's interval is the largest power of two up to the
// default that does not exceed i, so such a checkpoint exists unless i is
// under the index's minimum interval; then the read regenerates from
// instruction zero, and the report says so. Any divergence is a correctness
// bug in the snapshot/restore machinery and exits non-zero.
func seekCheck(out io.Writer, name string, n, i int64) error {
	if i < 0 {
		return fmt.Errorf("-seek %d: must not be negative", i)
	}
	if i >= n {
		return fmt.Errorf("-seek %d is past the end of the %d-instruction trace (raise -n)", i, n)
	}
	w, err := ibsim.LoadWorkload(name)
	if err != nil {
		return err
	}
	// Sequential reference: with no index, reading i generates and
	// discards everything before it.
	seq, err := ibsim.NewSeekableTrace(w, n, nil)
	if err != nil {
		return err
	}
	want, err := instructionAt(seq, i)
	if err != nil {
		return err
	}
	every := ibsim.DefaultCheckpointEvery
	for every > i && every > 1 {
		every /= 2
	}
	ix := ibsim.NewCheckpointIndex(every)
	seeker, err := ibsim.NewSeekableTrace(w, n, ix)
	if err != nil {
		return err
	}
	if err := seeker.ReadRuns(0, n, func([]ibsim.Run) error { return nil }); err != nil {
		return err
	}
	got, err := instructionAt(seeker, i)
	if err != nil {
		return err
	}
	st := ix.Stats()
	fmt.Fprintf(out, "== %s: seek spot-check at instruction %d of %d ==\n", w.Name, i, n)
	fmt.Fprintf(out, "sequential: addr %#x domain %d\n", want.Addr, want.Domain)
	fmt.Fprintf(out, "seeked:     addr %#x domain %d (index: %d checkpoints, %d bytes, every %d instructions)\n",
		got.Addr, got.Domain, st.Count, st.Bytes, st.Every)
	if ck, ok := ix.Nearest(i); ok {
		fmt.Fprintf(out, "restored:   checkpoint at instruction %d, then generated %d instructions\n",
			ck.Instructions(), i-ck.Instructions())
	} else {
		fmt.Fprintf(out, "restored:   none: no checkpoint at or below instruction %d, regenerated from instruction 0\n", i)
	}
	if got != want {
		return fmt.Errorf("MISMATCH: seeked reference diverges from sequential generation")
	}
	fmt.Fprintln(out, "PASS: seeked reference matches sequential generation")
	return nil
}

// instructionAt reads instruction i of src.
func instructionAt(src *ibsim.SeekableTrace, i int64) (ibsim.Ref, error) {
	var ref ibsim.Ref
	err := src.ReadRuns(i, 1, func(runs []ibsim.Run) error {
		ref = ibsim.Ref{Addr: runs[0].Start, Kind: ibsim.IFetch, Domain: runs[0].Domain}
		return nil
	})
	return ref, err
}

func report(name string, line int, n int64) error {
	w, err := ibsim.LoadWorkload(name)
	if err != nil {
		return err
	}
	a, err := ibsim.AnalyzeWorkloadLocality(w, line, n)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (%s) ==\n%s", w.Name, w.Description, a.Report())
	return nil
}

// printRunStats reports the trace's sequential-run structure — the numbers
// that determine how much the run-compacted bulk replay path can win.
func printRunStats(st ibsim.RunStats) {
	fmt.Printf("sequential runs:      %d (%d instructions)\n", st.Runs, st.Instructions)
	fmt.Printf("run length:           mean %.2f, median %.1f, max %d instructions\n",
		st.MeanLen, st.MedianLen, st.MaxLen)
	fmt.Printf("compaction ratio:     %.2fx\n", st.CompactionRatio())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ibstrace:", err)
	os.Exit(1)
}
