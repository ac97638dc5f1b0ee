package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The traced run: after the untraced timed phase, the same phase runs
// again with spans on, then the layer ledger times each layer's calls.
// Spans stay in memory and are written to the work directory at the end.

// storeDelta is Store.Stats movement over a timed phase.
type storeDelta struct{ Hits, Misses, Spills int64 }

// emitLedger adds the per-layer metrics every traced run reports, prints
// the ledger, and writes the spans out.
func emitLedger(o *options, rep *report, tr *Tracer, l *layers, sd storeDelta, dm counters, overhead float64) error {
	rep.metrics = append(rep.metrics, l.metrics...)
	ratio := 0.0
	if sd.Hits+sd.Misses > 0 {
		ratio = float64(sd.Hits) / float64(sd.Hits+sd.Misses)
	}
	rep.add("synth.store_hits", "count", float64(sd.Hits))
	rep.add("synth.store_misses", "count", float64(sd.Misses))
	rep.add("synth.store_hit_ratio", "ratio", ratio)
	rep.add("synth.store_spills", "count", float64(sd.Spills))
	rep.add("server.admitted", "count", float64(dm.Admitted))
	rep.add("server.degraded", "count", float64(dm.Degraded))
	rep.add("server.sampling_tier", "count", float64(dm.Sampling))
	rep.add("server.columnar_tier", "count", float64(dm.Columnar))
	rep.add("server.seek_tier", "count", float64(dm.Seek))
	rep.add("server.dedup_hits", "count", float64(dm.Dedup))
	rep.add("bench.trace_overhead_ratio", "ratio", overhead)

	fmt.Fprintf(o.out, "ledger (%s, seed %d):\n", ledgerWorkload, o.seed)
	for _, m := range rep.metrics {
		fmt.Fprintf(o.out, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := tr.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(o.out, "spans: %d written to %s\n", n, path)
	return nil
}

// overheadRatio is traced over untraced process CPU per operation.
func overheadRatio(o *options, traced, untraced noise, tracedOps, untracedOps int) float64 {
	r := (traced.cpu.total().Seconds() / float64(tracedOps)) / (untraced.cpu.total().Seconds() / float64(untracedOps))
	fmt.Fprintf(o.out, "tracing overhead: traced/untraced CPU per operation %.4f (wall %.3fs vs %.3fs)\n",
		r, traced.wall.Seconds(), untraced.wall.Seconds())
	return r
}

// exhibitLedger is paper-exhibits' traced run.
func exhibitLedger(o *options, rep *report, untraced noise, untracedPasses [][]exhibitOp, sd storeDelta) error {
	tr := NewTracer(true)
	passes, nz := exhibitPhase(o, tr)
	fmt.Fprintf(o.out, "traced phase: %d pass(es): %v\n", len(passes), nz)
	for _, pass := range passes {
		for i, op := range pass {
			if op.err != nil || op.text != untracedPasses[0][i].text {
				return fmt.Errorf("traced %s differs from the untraced pass", op.name)
			}
		}
	}
	self := selfTimes(tr.Spans())
	for _, name := range sortedKeys(self) {
		if strings.HasPrefix(name, "exhibit.") {
			fmt.Fprintf(o.out, "  %-34s %14.4f s\n", name+"_s", self[name].Seconds()/float64(len(passes)))
		}
	}
	printAmdahl(o.out, "paper-exhibits (self time of each exhibit span in the traced passes)", amdahl(self))
	overhead := overheadRatio(o, nz, untraced, len(passes), len(untracedPasses))
	l, err := measureLayers(o, tr)
	if err != nil {
		return err
	}
	// Figure 5 maps and looks up every reference of 4 workloads in 27
	// geometries × Trials page mappings.
	calls := float64(4 * 27 * exhibitTrials * fig5Refs)
	access := (l.call["cache.access.dm8k"] + l.call["cache.access.2w64k"] + l.call["cache.access.4w1m"]) / 3
	fmt.Fprintf(o.out, "figure5 model: %.0f references × (vm.translate %.1f ns + cache.Access %.1f ns) = %.2f s CPU; measured %.2f s wall on %d workers\n",
		calls, float64(l.call["vm.translate"])/fig5Refs, float64(access)/fig5Refs,
		calls*float64(l.call["vm.translate"]+access)/fig5Refs/1e9, self["exhibit.figure5"].Seconds()/float64(len(passes)), exhibitWorkers)
	return emitLedger(o, rep, tr, l, sd, counters{}, overhead)
}

// serveTrace is a serve workload's traced phase.
type serveTrace struct {
	tr  *Tracer
	ops []op
	nz  noise
}

// traceServe repeats the timed phase with spans on, on the same warm
// service.
func traceServe(o *options, sh shape, s *service, rng *rand.Rand) (*serveTrace, error) {
	tr := NewTracer(true)
	ph := servePhase(o, sh, s, tr, rng)
	for _, op := range ph.ops {
		if op.err != nil {
			return nil, fmt.Errorf("traced %s: %w", op.req.key(), op.err)
		}
	}
	return &serveTrace{tr: tr, ops: ph.ops, nz: ph.nz}, nil
}

// requestModel lists the ledger calls the server makes for one request of
// a class and endpoint, by layer.
func requestModel(r request) map[string][]string {
	enc := "server.json_encode." + r.endpoint
	switch r.class.rung + "/" + r.endpoint {
	case "exact/sweep":
		return map[string][]string{"sweep": {"sweep.run"}, "json": {enc}}
	case "exact/replay":
		return map[string][]string{"replay": {"replay.bank"}, "json": {enc}}
	case "auto-sampling/sweep":
		return map[string][]string{"sweep": {"sweep.sampled"}, "json": {enc}}
	case "auto-sampling/replay":
		return map[string][]string{"replay": {"replay.sampled_auto"}, "json": {enc}}
	case "columnar/sweep":
		return map[string][]string{"synth": {"synth.runsonly_fail.1m"}, "sweep": {"sweep.blocks"}, "json": {enc}}
	case "columnar/replay":
		return map[string][]string{"synth": {"synth.runsonly_fail.1m"}, "replay": {"replay.blocks"}, "json": {enc}}
	case "seek/sweep":
		return map[string][]string{"synth": {"synth.runsonly_fail.4m", "synth.columnar_fail"}, "sweep": {"sweep.seek_sampled"}, "json": {enc}}
	case "seek/replay":
		return map[string][]string{"synth": {"synth.runsonly_fail.4m", "synth.columnar_fail"}, "replay": {"replay.sampled_seek"}, "json": {enc}}
	}
	return nil
}

// serveLedger is a serve workload's traced run: server-side time per
// request from the responses, the Amdahl table, and the layer ledger.
func serveLedger(o *options, rep *report, st *serveTrace, untraced noise, untracedOps int, sd storeDelta, dm counters) error {
	spans := st.tr.Spans()
	l, err := measureLayers(o, st.tr)
	if err != nil {
		return err
	}
	var elapsed, overheads []float64
	parts := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name != "http" {
			continue
		}
		op := st.ops[s.Req-1]
		server := time.Duration(op.ans.elapsed * float64(time.Second))
		elapsed = append(elapsed, ms(server))
		overheads = append(overheads, ms(s.Dur()-server))
		parts["transport (http - elapsed)"] += s.Dur() - server
		var modelled time.Duration
		for layer, calls := range requestModel(op.req) {
			for _, c := range calls {
				parts[layer+" (model)"] += l.call[c]
				modelled += l.call[c]
			}
		}
		parts["server other (elapsed - model)"] += server - modelled
	}
	self := selfTimes(spans)
	for name, d := range self {
		if name != "http" {
			parts["client "+name] += d
		}
	}
	fmt.Fprintf(o.out, "  %-34s %14.4f ms\n", "server.elapsed_ms_p50", median(elapsed))
	fmt.Fprintf(o.out, "  %-34s %14.4f ms\n", "server.overhead_ms_p50", median(overheads))
	fmt.Fprintf(o.out, "calls: %d requests; store misses (failed over-budget attempts) %d; /metrics %+v\n",
		len(st.ops), sd.Misses, dm)
	printAmdahl(o.out, o.workload+" (traced requests; layers modelled from the ledger's per-call medians × requests per rung)", amdahl(parts))
	overhead := overheadRatio(o, st.nz, untraced, len(st.ops), untracedOps)
	return emitLedger(o, rep, st.tr, l, sd, dm, overhead)
}
