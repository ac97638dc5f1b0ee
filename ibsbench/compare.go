package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Compare mode: given two sets of result lines (the last stdout line of
// each run, one per line; other lines are skipped), print every
// end-to-end metric's median and quartiles per set and whether the sets
// agree within the metric's bound in BENCHMARK.json. They agree when each
// set's spread (interquartile distance over median) is within the bound —
// setup_s excepted — and the second median is not worse than the first by
// more than the bound.

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults returns each metric's values across the result lines in r.
func readResults(r io.Reader) (map[string][]float64, int, error) {
	vals := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	return vals, runs, sc.Err()
}

// worse returns how much worse b is than a, as a share of a.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("ibsbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ibsbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "ibsbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var sets [2]map[string][]float64
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibsbench compare: %v\n", err)
			return 2
		}
		var runs int
		sets[i], runs, err = readResults(f)
		f.Close()
		if err != nil || runs < 2 {
			fmt.Fprintf(os.Stderr, "ibsbench compare: %s: need at least two result lines (%d, %v)\n", path, runs, err)
			return 2
		}
	}
	return compareSets(w, spec, sets)
}

// compareSets prints the comparison table and returns 0 when every metric
// agrees, 1 otherwise.
func compareSets(w io.Writer, spec benchSpec, sets [2]map[string][]float64) int {
	status := 0
	fmt.Fprintf(w, "%-16s %6s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %s\n",
		"metric", "bound", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "worse", "verdict")
	for _, m := range spec.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		aq1, am, aq3, aok := quartiles(a)
		bq1, bm, bq3, bok := quartiles(b)
		if !aok || !bok {
			fmt.Fprintf(w, "%-16s %6.3f | missing from a set\n", m.Name, m.Bound)
			status = 1
			continue
		}
		as, _ := spread(a)
		bs, _ := spread(b)
		wr := worse(am, bm, m.Better)
		verdict := "agree"
		switch {
		case m.Name != "setup_s" && (as > m.Bound || bs > m.Bound):
			verdict = "SPREAD OVER BOUND"
		case wr > m.Bound:
			verdict = "WORSE BY MORE THAN BOUND"
		}
		if verdict != "agree" {
			status = 1
		}
		fmt.Fprintf(w, "%-16s %6.3f | %12.5g %12.5g %12.5g %6.2f%% | %12.5g %12.5g %12.5g %6.2f%% | %6.2f%% %s\n",
			m.Name, m.Bound, aq1, am, aq3, 100*as, bq1, bm, bq3, 100*bs, 100*wr, verdict)
	}
	return status
}
