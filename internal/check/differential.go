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

// ParallelVsSerial renders representative exhibits with the concurrent suite
// runners and again with the Options.Serial reference executor; the rendered
// bytes — the exact output cmd/ibstables prints — must be identical.
// Table 4 exercises mapRuns (per-workload MPI), Table 1 exercises
// mapProfiles (whole-system rows).
func ParallelVsSerial(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	expOpt := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
	serialOpt := expOpt
	serialOpt.Serial = true

	var harnessErr error
	var out []Result
	out = append(out, timed(func() Result {
		const name = "differential/parallel-serial-table4"
		par, err := experiments.Table4(expOpt)
		if err != nil {
			harnessErr = err
			return fail(name, "parallel Table4: %v", err)
		}
		ser, err := experiments.Table4(serialOpt)
		if err != nil {
			harnessErr = err
			return fail(name, "serial Table4: %v", err)
		}
		if par.Render() != ser.Render() {
			return fail(name, "parallel and serial Table 4 renders differ")
		}
		return pass(name, "mapRuns parallel render == serial render (%d bytes)", len(par.Render()))
	}))
	if harnessErr != nil {
		return out, harnessErr
	}
	out = append(out, timed(func() Result {
		const name = "differential/parallel-serial-table1"
		par, err := experiments.Table1(expOpt)
		if err != nil {
			harnessErr = err
			return fail(name, "parallel Table1: %v", err)
		}
		ser, err := experiments.Table1(serialOpt)
		if err != nil {
			harnessErr = err
			return fail(name, "serial Table1: %v", err)
		}
		if par.Render() != ser.Render() {
			return fail(name, "parallel and serial Table 1 renders differ")
		}
		return pass(name, "mapProfiles parallel render == serial render (%d bytes)", len(par.Render()))
	}))
	return out, harnessErr
}

// TraceRoundTrip writes a full reference stream (instructions plus data, all
// domains) through the IBSTRACE codec — both the self-describing seekable
// file path ibsim.WriteTraceFile uses and the streaming count-less path —
// reads it back, and demands the decoded stream be element-identical and
// yield bit-identical simulation results.
func TraceRoundTrip(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	p := opt.Workloads[0]

	var harnessErr error
	res := timed(func() Result {
		const name = "differential/trace-roundtrip"
		refs, err := synth.Trace(p, opt.Seed, opt.Instructions)
		if err != nil {
			harnessErr = err
			return fail(name, "trace generation: %v", err)
		}

		// Seekable file round trip (the WriteTraceFile/ReadTraceFile path).
		f, err := os.CreateTemp("", "ibscheck-*.ibstrace")
		if err != nil {
			harnessErr = err
			return fail(name, "temp file: %v", err)
		}
		defer os.Remove(f.Name())
		written, err := trace.EncodeSeeker(f, refs)
		if err != nil {
			f.Close()
			return fail(name, "encode: %v", err)
		}
		if written != uint64(len(refs)) {
			f.Close()
			return fail(name, "encoded %d records, generated %d", written, len(refs))
		}
		if _, err := f.Seek(0, 0); err != nil {
			f.Close()
			harnessErr = err
			return fail(name, "rewind: %v", err)
		}
		fromFile, err := trace.Decode(f)
		f.Close()
		if err != nil {
			return fail(name, "decode: %v", err)
		}
		if r := refsDiffer(refs, fromFile); r != "" {
			return fail(name, "file round trip: %s", r)
		}

		// Streaming (count-less) round trip through a pipe-like buffer.
		pr, pw, err := pipeRoundTrip(refs)
		if err != nil {
			return fail(name, "streaming round trip: %v", err)
		}
		if pr != pw {
			return fail(name, "streaming round trip decoded %d of %d records", pr, pw)
		}

		// Simulation equivalence: replay both streams through the same fetch
		// engine and cache; results must be bit-identical.
		link := checkLink()
		cfg := baseL1()
		for _, streams := range [][2][]trace.Ref{{refs, fromFile}} {
			e1, err := fetch.NewBlocking(cfg, link, 1)
			if err != nil {
				harnessErr = err
				return fail(name, "%v", err)
			}
			e2, err := fetch.NewBlocking(cfg, link, 1)
			if err != nil {
				harnessErr = err
				return fail(name, "%v", err)
			}
			if a, b := fetch.Run(e1, streams[0]), fetch.Run(e2, streams[1]); a != b {
				return fail(name, "fetch results diverge after round trip: %+v vs %+v", a, b)
			}
			c1, c2 := cache.MustNew(cfg), cache.MustNew(cfg)
			for _, r := range streams[0] {
				c1.Access(r.Addr)
			}
			for _, r := range streams[1] {
				c2.Access(r.Addr)
			}
			if c1.Stats() != c2.Stats() {
				return fail(name, "cache stats diverge after round trip: %+v vs %+v", c1.Stats(), c2.Stats())
			}
		}
		return pass(name, "%s: %d records survived file + streaming round trips, simulations identical",
			p.Name, len(refs))
	})
	return []Result{res}, harnessErr
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
