package check

import (
	"bytes"
	"fmt"
	"os"

	"ibsim/internal/cache"
	"ibsim/internal/experiments"
	"ibsim/internal/fetch"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// exhibit is one experiments runner under its exhibit name, returning the
// rendered text cmd/ibstables prints.
type exhibit struct {
	name string
	run  func(experiments.Options) (string, error)
}

// rendered adapts an experiments runner to an exhibit.
func rendered[R interface{ Render() string }](name string, run func(experiments.Options) (R, error)) exhibit {
	return exhibit{name, func(o experiments.Options) (string, error) {
		r, err := run(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}}
}

// The parallel-serial differentials render representative exhibits with the
// concurrent suite runners and again with the one-worker reference executor
// (Workers: 1); the rendered bytes — the exact output cmd/ibstables prints —
// must be identical. Table 4 exercises mapRuns (per-workload MPI), Table 1
// exercises mapProfiles (whole-system rows).

func parallelSerialTable4(opt Options) (string, error) {
	return parallelSerial(opt, "4", "mapRuns", rendered("Table4", experiments.Table4))
}

func parallelSerialTable1(opt Options) (string, error) {
	return parallelSerial(opt, "1", "mapProfiles", rendered("Table1", experiments.Table1))
}

func parallelSerial(opt Options, table, runner string, ex exhibit) (string, error) {
	parOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
	serialOpt := parOpt
	serialOpt.Workers = 1
	par, err := ex.run(parOpt)
	if err != nil {
		return "", fmt.Errorf("parallel %s: %w", ex.name, err)
	}
	ser, err := ex.run(serialOpt)
	if err != nil {
		return "", fmt.Errorf("serial %s: %w", ex.name, err)
	}
	if par != ser {
		return "", Failf("parallel and serial Table %s renders differ", table)
	}
	return fmt.Sprintf("%s parallel render == serial render (%d bytes)", runner, len(par)), nil
}

// perConfigRenders renders every exhibit on the default path, named path in
// a failure, and on the Options.PerConfig reference path, and returns the
// bytes rendered; the first pair of texts that differ fails the check.
func perConfigRenders(opt Options, path string, exhibits ...exhibit) (int, error) {
	fastOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
	refOpt := fastOpt
	refOpt.PerConfig = true
	total := 0
	for _, ex := range exhibits {
		fast, err := ex.run(fastOpt)
		if err != nil {
			return 0, fmt.Errorf("%s %s path: %w", ex.name, path, err)
		}
		ref, err := ex.run(refOpt)
		if err != nil {
			return 0, fmt.Errorf("%s per-config path: %w", ex.name, err)
		}
		if fast != ref {
			return 0, Failf("%s: %s and per-config renders differ", ex.name, path)
		}
		total += len(fast)
	}
	return total, nil
}

// fanoutTables verifies the fan-out replay driver against the trusted
// per-configuration path: Tables 5-8 and Figures 6/7 — every exhibit
// internal/experiments routes through mapBanks — rendered via the default
// path (memoized run-compacted traces fanned out through replay.Run, with
// bulk FetchRuns and one L1 pass per content class) must be byte-identical
// to the Options.PerConfig reference path (one fetch.Run over the expanded
// trace per engine per workload). This is the guarantee that lets the
// single-pass path replace the per-config one everywhere.
func fanoutTables(opt Options) (string, error) {
	total, err := perConfigRenders(opt, "fan-out",
		rendered("Table5", experiments.Table5),
		rendered("Table6", experiments.Table6),
		rendered("Table7", experiments.Table7),
		rendered("Table8", experiments.Table8),
		rendered("Figure6", experiments.Figure6),
		rendered("Figure7", experiments.Figure7))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Tables 5-8 + Figures 6/7 fan-out renders == per-config renders (%d bytes)", total), nil
}

// figure5Physical verifies the physically-indexed line-event kernel against
// the trusted per-reference path: Figure 5's points from the default path
// (page translation once per page, one Touch per line event over the
// memoized run-compacted trace) must equal, field by field, those of the
// Options.PerConfig path (one Translate and one Access per reference). It
// compares points rather than renders because Render prints only each
// point's StdDev, to four decimals, so a MeanCPI drift would pass. Two trials
// bound the per-reference path's cost.
func figure5Physical(opt Options) (string, error) {
	fastOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed, Trials: 2}
	refOpt := fastOpt
	refOpt.PerConfig = true
	fast, err := experiments.Figure5(fastOpt)
	if err != nil {
		return "", fmt.Errorf("line-event path: %w", err)
	}
	ref, err := experiments.Figure5(refOpt)
	if err != nil {
		return "", fmt.Errorf("per-reference path: %w", err)
	}
	if len(fast.Points) != len(ref.Points) {
		return "", Failf("%d points, per-reference %d", len(fast.Points), len(ref.Points))
	}
	for i, p := range fast.Points {
		q := ref.Points[i]
		switch {
		case p.Workload != q.Workload || p.SizeKB != q.SizeKB || p.Assoc != q.Assoc:
			return "", Failf("point %d is %s %dKB %d-way, per-reference %s %dKB %d-way",
				i, p.Workload, p.SizeKB, p.Assoc, q.Workload, q.SizeKB, q.Assoc)
		case p.MeanCPI != q.MeanCPI:
			return "", Failf("%s %dKB %d-way: MeanCPI %v, per-reference %v",
				p.Workload, p.SizeKB, p.Assoc, p.MeanCPI, q.MeanCPI)
		case p.StdDev != q.StdDev:
			return "", Failf("%s %dKB %d-way: StdDev %v, per-reference %v",
				p.Workload, p.SizeKB, p.Assoc, p.StdDev, q.StdDev)
		}
	}
	return fmt.Sprintf("Figure 5 line-event points == per-reference points (%d points x %d trials)",
		len(fast.Points), fastOpt.Trials), nil
}

// traceRoundTrip writes a full reference stream (instructions plus data, all
// domains) through the IBSTRACE codec — both the self-describing seekable
// file path ibsim.WriteTraceFile uses and the streaming count-less path —
// reads it back, and demands the decoded stream be element-identical and
// yield bit-identical simulation results.
func traceRoundTrip(opt Options) (string, error) {
	p := opt.Workloads[0]
	refs, err := synth.Trace(p, opt.Seed, opt.Instructions)
	if err != nil {
		return "", fmt.Errorf("trace generation: %w", err)
	}

	// Seekable file round trip (the WriteTraceFile/ReadTraceFile path).
	f, err := os.CreateTemp("", "ibscheck-*.ibstrace")
	if err != nil {
		return "", fmt.Errorf("temp file: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	written, err := trace.EncodeSeeker(f, refs)
	if err != nil {
		return "", Failf("encode: %v", err)
	}
	if written != uint64(len(refs)) {
		return "", Failf("encoded %d records, generated %d", written, len(refs))
	}
	if _, err := f.Seek(0, 0); err != nil {
		return "", fmt.Errorf("rewind: %w", err)
	}
	fromFile, err := trace.Decode(f)
	if err != nil {
		return "", Failf("decode: %v", err)
	}
	if r := refsDiffer(refs, fromFile); r != "" {
		return "", Failf("file round trip: %s", r)
	}

	// Streaming (count-less) round trip through a pipe-like buffer.
	pr, pw, err := pipeRoundTrip(refs)
	if err != nil {
		return "", Failf("streaming round trip: %v", err)
	}
	if pr != pw {
		return "", Failf("streaming round trip decoded %d of %d records", pr, pw)
	}

	// Simulation equivalence: replay both streams through the same fetch
	// engine and cache; results must be bit-identical.
	link := checkLink()
	cfg := baseL1()
	e1, err := fetch.NewBlocking(cfg, link, 1)
	if err != nil {
		return "", err
	}
	e2, err := fetch.NewBlocking(cfg, link, 1)
	if err != nil {
		return "", err
	}
	if a, b := fetch.Run(e1, refs), fetch.Run(e2, fromFile); a != b {
		return "", Failf("fetch results diverge after round trip: %+v vs %+v", a, b)
	}
	c1, c2 := cache.MustNew(cfg), cache.MustNew(cfg)
	for _, r := range refs {
		c1.Access(r.Addr)
	}
	for _, r := range fromFile {
		c2.Access(r.Addr)
	}
	if c1.Stats() != c2.Stats() {
		return "", Failf("cache stats diverge after round trip: %+v vs %+v", c1.Stats(), c2.Stats())
	}
	return fmt.Sprintf("%s: %d records survived file + streaming round trips, simulations identical",
		p.Name, len(refs)), nil
}

// refsDiffer compares two streams, returning "" when identical or a
// description of the first divergence.
func refsDiffer(a, b []trace.Ref) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("record %d differs: %+v vs %+v", i, b[i], a[i])
		}
	}
	return ""
}

// pipeRoundTrip encodes refs with the streaming (count-less) writer into a
// memory buffer and decodes it back, returning decoded and written counts.
func pipeRoundTrip(refs []trace.Ref) (decoded, written int, err error) {
	var buf bytes.Buffer
	n, err := trace.Encode(&buf, refs)
	if err != nil {
		return 0, int(n), err
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		return len(got), int(n), err
	}
	if r := refsDiffer(refs, got); r != "" {
		return len(got), int(n), fmt.Errorf("decoded stream: %s", r)
	}
	return len(got), int(n), nil
}
