// Command ibsbench is the repository's end-to-end benchmark. It runs one
// workload in this process, checks every answer, and prints diagnostics
// followed by one JSON result line:
//
//	ibsbench --workload serve-hot --seed 3 --seconds 10 --trace 0
//
// Workloads: paper-exhibits (the paper's 15 exhibits through
// ibsim.RenderExhibit), serve-hot (ibsimd with every trace in RAM) and
// serve-overbudget (ibsimd under a 1 MiB hard store budget, one request
// class per degradation rung). --trace 1 runs the workload twice, untraced
// and traced, times each layer's public calls, and reports the per-layer
// ledger instead of the end-to-end metrics.
//
//	ibsbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl
//
// compares two sets of result lines metric by metric against the bounds
// in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// record, when set, verifies every answer against recomputed
	// references and writes the answer digests to this file.
	record string
	// work is the directory run artifacts (spill files, spans) go in.
	work string
	out  io.Writer
}

// coldSetups is how many cold set-ups an end-to-end run makes; setup_s is
// their median.
const coldSetups = 5

// setupCount is how many cold set-ups the run makes: the traced run
// reports no set-up time and makes one.
func (o *options) setupCount() int {
	if o.trace {
		return 1
	}
	return coldSetups
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// report collects a run's operation counts and metrics.
type report struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(o *options, rep *report) error{
	"paper-exhibits":   runExhibits,
	"serve-hot":        func(o *options, rep *report) error { return runServe(o, rep, hotShape()) },
	"serve-overbudget": func(o *options, rep *report) error { return runServe(o, rep, overBudgetShape()) },
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ibsbench", flag.ContinueOnError)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload: paper-exhibits, serve-hot or serve-overbudget")
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed: offsets every synthetic trace seed and orders the request schedule")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase, in seconds")
	fs.IntVar(&traced, "trace", 0, "1 runs the traced ledger run instead of the end-to-end run")
	fs.StringVar(&o.record, "record", "", "verify every answer against recomputed references and write the digests to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	body, ok := workloads[o.workload]
	if !ok || (traced != 0 && traced != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "ibsbench: need --workload (paper-exhibits, serve-hot, serve-overbudget), --seconds > 0, --trace 0|1\n")
		return 2
	}
	o.trace = traced == 1
	o.out = stdout
	o.work = filepath.Join(".bench_build", "ibsbench")
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "ibsbench %s seed %d seconds %g trace %v GOMAXPROCS %d NumCPU %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var rep report
	if err := body(&o, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricJSON, len(rep.metrics))}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// errGuard marks a run that measured a different code path than the
// workload names; the run fails instead of reporting those numbers.
var errGuard = errors.New("path guard")

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
