package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ibsim/internal/server"
	"ibsim/internal/synth"
)

// The serve workloads drive ibsimd's HTTP API in this process: server.New
// plus Run on a loopback listener, one closed-loop client on one
// connection, so exactly one request is in flight and the process CPU
// spent while it is in flight is that request's own cost.

// class is one request class of a serve workload.
type class struct {
	// name keys the class in digests and reports.
	name string
	n    int64
	// sampling is the request's explicit sampling knob (nil = exact).
	sampling *server.SamplingSpec
	// rung is the degradation-ladder rung the class must land on:
	// "exact", "auto-sampling", "columnar" or "seek".
	rung string
}

// shape is a serve workload: its store and its request classes.
type shape struct {
	name string
	// hardBudget is the store's hard per-trace budget (0 = none).
	hardBudget int64
	classes    []class
}

const (
	serveIdleBudget = 256 << 20 // ibsimd's default -store-idle-mb
	serveLineSize   = 32
)

func hotShape() shape {
	return shape{name: "serve-hot", classes: []class{{name: "hot", n: 1_000_000, rung: "exact"}}}
}

// overBudgetShape pins each class to one rung by trace length: at 256k
// instructions the run compaction fits 1 MiB (automatic sampling); at 1M
// only the columnar file does (columnar-exact); at 4M neither does, and
// the explicit skip-mode plan is served by checkpoint seeks.
func overBudgetShape() shape {
	return shape{name: "serve-overbudget", hardBudget: 1 << 20, classes: []class{
		{name: "auto", n: 256_000, rung: "auto-sampling"},
		{name: "columnar", n: 1_000_000, rung: "columnar"},
		{name: "seek", n: 4_000_000, sampling: &server.SamplingSpec{Window: 16_384, Period: 262_144, Skip: true}, rung: "seek"},
	}}
}

// serveGrid is the sweep grid: direct-mapped 4-256 KB plus 2/4/8-way at 8
// and 32 KB, all at 32-byte lines.
func serveGrid() []server.CellSpec {
	var cells []server.CellSpec
	for kb := 4; kb <= 256; kb *= 2 {
		cells = append(cells, server.CellSpec{Sets: kb * 1024 / serveLineSize, Assoc: 1})
	}
	for _, kb := range []int{8, 32} {
		for _, a := range []int{2, 4, 8} {
			cells = append(cells, server.CellSpec{Sets: kb * 1024 / serveLineSize / a, Assoc: a})
		}
	}
	return cells
}

// serveBank is the replay bank: the paper's blocking, prefetching, bypass
// and stream-buffer engines over an 8 KB direct-mapped L1. Stream buffers
// need a line of at most twice the link's bytes per cycle, so they use the
// on-chip L2 link.
func serveBank() []server.EngineSpec {
	economy, l1l2 := server.LinkSpec{Name: "economy"}, server.LinkSpec{Name: "l1l2"}
	return []server.EngineSpec{
		{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: economy},
		{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: economy, PrefetchLines: 3},
		{Kind: "bypass", Size: 8192, LineSize: 32, Assoc: 1, Link: economy, PrefetchLines: 3},
		{Kind: "stream", Size: 8192, LineSize: 32, Assoc: 1, Link: l1l2, Depth: 6},
		{Kind: "blocking", Size: 8192, LineSize: 64, Assoc: 1, Link: economy},
		{Kind: "stream", Size: 8192, LineSize: 16, Assoc: 1, Link: l1l2, Depth: 4},
	}
}

// request is one request of the schedule.
type request struct {
	endpoint string // "sweep" or "replay"
	class    class
	workload string
	body     []byte
}

func (r request) key() string { return r.endpoint + "/" + r.class.name + "/" + r.workload }

// exact reports whether the request asks for an exact answer.
func (r request) exact() bool { return r.class.sampling == nil }

func newRequest(endpoint string, c class, workload string, seed uint64) request {
	var v any
	if endpoint == "sweep" {
		v = server.SweepRequest{Workload: workload, Seed: seed, Instructions: c.n, LineSize: serveLineSize,
			Cells: serveGrid(), Sampling: c.sampling}
	} else {
		v = server.ReplayRequest{Workload: workload, Seed: seed, Instructions: c.n, Engines: serveBank(),
			Sampling: c.sampling}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always encode
	}
	return request{endpoint: endpoint, class: c, workload: workload, body: body}
}

// machNames lists the IBS Mach workloads.
func machNames() []string {
	var names []string
	for _, p := range synth.IBSMach() {
		names = append(names, p.Name)
	}
	return names
}

// round returns one round of the schedule — every workload × class ×
// endpoint once — in an order drawn from rng.
func (sh shape) round(seed uint64, rng *rand.Rand) []request {
	var reqs []request
	for _, w := range machNames() {
		for _, c := range sh.classes {
			reqs = append(reqs, newRequest("sweep", c, w, seed), newRequest("replay", c, w, seed))
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// service is one ibsimd instance with its store and client.
type service struct {
	store    *synth.Store
	srv      *server.Server
	cancel   context.CancelFunc
	done     chan error
	base     string
	client   *http.Client
	spillDir string
}

// startService starts a server on a fresh store on a loopback listener.
// spillDir, when set, is the store's columnar spill directory; it must not
// exist yet.
func startService(sh shape, spillDir string) (*service, error) {
	store := synth.NewStoreLimits(serveIdleBudget, sh.hardBudget)
	if spillDir != "" {
		if err := store.SetSpillDir(spillDir); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{store: store, srv: server.New(server.Config{Store: store}), cancel: cancel,
		done: make(chan error, 1), base: "http://" + ln.Addr().String(), spillDir: spillDir,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	go func() { s.done <- s.srv.Run(ctx, ln) }()
	return s, nil
}

// stop drains the server (Run must return nil), purges the store and
// checks that the spill directory was left empty before removing it.
func (s *service) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	if err := <-s.done; err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	s.store.Purge()
	if s.spillDir == "" {
		return nil
	}
	left, err := os.ReadDir(s.spillDir)
	if err != nil {
		return err
	}
	if len(left) != 0 {
		return fmt.Errorf("spill directory %s holds %d files after drain and purge", s.spillDir, len(left))
	}
	return os.Remove(s.spillDir)
}

// post sends one request and reads the whole response.
func (s *service) post(r request) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/"+r.endpoint, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// counters is the part of /metrics the path guard and ledger read.
type counters struct {
	Requests int64 `json:"requests_total"`
	Admitted int64 `json:"admitted_total"`
	Dedup    int64 `json:"dedup_hits_total"`
	Degraded int64 `json:"degraded_total"`
	Sampling int64 `json:"sampling_tier_total"`
	Columnar int64 `json:"columnar_tier_total"`
	Seek     int64 `json:"seek_tier_total"`
}

func (c counters) sub(o counters) counters {
	return counters{c.Requests - o.Requests, c.Admitted - o.Admitted, c.Dedup - o.Dedup, c.Degraded - o.Degraded,
		c.Sampling - o.Sampling, c.Columnar - o.Columnar, c.Seek - o.Seek}
}

func (s *service) metrics() (counters, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var c counters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return counters{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return c, nil
}

// answer is a decoded response with elapsed_seconds cleared, so equal
// answers have equal digests.
type answer struct {
	sweep   *server.SweepResponse
	replay  *server.ReplayResponse
	elapsed float64
	digest  string
}

func decodeAnswer(endpoint string, b []byte) (answer, error) {
	var a answer
	var v any
	if endpoint == "sweep" {
		a.sweep = new(server.SweepResponse)
		v = a.sweep
	} else {
		a.replay = new(server.ReplayResponse)
		v = a.replay
	}
	if err := json.Unmarshal(b, v); err != nil {
		return a, fmt.Errorf("decoding response: %w", err)
	}
	if a.sweep != nil {
		a.elapsed, a.sweep.ElapsedSeconds = a.sweep.ElapsedSeconds, 0
	} else {
		a.elapsed, a.replay.ElapsedSeconds = a.replay.ElapsedSeconds, 0
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return a, err
	}
	a.digest = digest(canon)
	return a, nil
}

// degraded and sampled report the response's plan as the server stated it.
func (a answer) degraded() bool {
	if a.sweep != nil {
		return a.sweep.Degraded
	}
	return a.replay.Degraded
}

func (a answer) sampled() bool {
	if a.sweep != nil {
		return a.sweep.Sampling != nil
	}
	return a.replay.Sampling != nil
}

// onRung reports whether the response's stated plan matches the rung the
// request's class must land on.
func onRung(rung string, a answer) bool {
	switch rung {
	case "exact":
		return !a.degraded() && !a.sampled()
	case "auto-sampling":
		return a.degraded() && a.sampled()
	case "columnar":
		return a.degraded() && !a.sampled()
	case "seek":
		return !a.degraded() && a.sampled()
	}
	return false
}

// op is one timed request.
type op struct {
	req       request
	err       error
	ans       answer
	wall, cpu time.Duration
}

// send issues one request, timing wall and process CPU while it is in
// flight, and decodes the answer.
func (s *service) send(r request, tr *Tracer, id int) op {
	root := tr.Begin("request."+r.endpoint, 0, id)
	defer tr.End(root)
	sp := tr.Begin("http", root, id)
	c0, w0 := processCPU(), time.Now()
	status, body, err := s.post(r)
	o := op{req: r, err: err, wall: time.Since(w0), cpu: processCPU().sub(c0).total()}
	tr.End(sp)
	if err == nil && status != http.StatusOK {
		o.err = fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	if o.err == nil {
		sp = tr.Begin("decode", root, id)
		o.ans, o.err = decodeAnswer(r.endpoint, body)
		tr.End(sp)
	}
	return o
}

// warm brings a fresh service to its steady state: one request per
// workload and class, which generates, compacts and spills whatever that
// class keeps memoized.
func (s *service) warm(sh shape, seed uint64) error {
	for _, w := range machNames() {
		for _, c := range sh.classes {
			endpoint := "replay" // materializes references and runs together
			if c.rung != "exact" {
				endpoint = "sweep"
			}
			o := s.send(newRequest(endpoint, c, w, seed), NewTracer(false), 0)
			if o.err != nil {
				return fmt.Errorf("warm-up %s: %w", o.req.key(), o.err)
			}
		}
	}
	return nil
}

// coldStart is one timed cold set-up: store, spill directory, server and
// warm-up requests.
func coldStart(o *options, sh shape, i int) (*service, time.Duration, error) {
	runtime.GC()
	spill := ""
	if sh.hardBudget > 0 {
		spill = filepath.Join(o.work, fmt.Sprintf("spill-%d-%d", os.Getpid(), i))
	}
	start := time.Now()
	s, err := startService(sh, spill)
	if err != nil {
		return nil, 0, err
	}
	if err := s.warm(sh, o.seed); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// phase is a serve workload's timed phase: its requests, and the wall and
// process CPU time of each round.
type phase struct {
	ops                 []op
	roundWall, roundCPU []float64
	nz                  noise
}

// servePhase runs whole rounds until the time budget is spent and at least
// minOps requests were made.
func servePhase(o *options, sh shape, s *service, tr *Tracer, rng *rand.Rand) phase {
	const minOps = 100
	var ph phase
	p0 := snap()
	budget := time.Duration(o.seconds * float64(time.Second))
	for time.Since(p0.wall) < budget || len(ph.ops) < minOps {
		c0, w0 := processCPU(), time.Now()
		for _, r := range sh.round(o.seed, rng) {
			ph.ops = append(ph.ops, s.send(r, tr, len(ph.ops)+1))
		}
		ph.roundWall = append(ph.roundWall, time.Since(w0).Seconds())
		ph.roundCPU = append(ph.roundCPU, processCPU().sub(c0).total().Seconds())
	}
	ph.nz = p0.until(snap())
	return ph
}

func runServe(o *options, rep *report, sh shape) error {
	setups := o.setupCount()
	var s *service
	var times []float64
	for i := 0; i < setups; i++ {
		svc, d, err := coldStart(o, sh, i)
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
		if i < setups-1 {
			if err := svc.stop(); err != nil {
				return err
			}
			continue
		}
		s = svc
	}
	fmt.Fprintf(o.out, "setup: %d cold set-ups, median %.3fs %v\n", len(times), median(times), times)

	rng := rand.New(rand.NewSource(int64(o.seed)))
	m0, err := s.metrics()
	if err != nil {
		return err
	}
	st0 := s.store.Stats()
	ph := servePhase(o, sh, s, NewTracer(false), rng)
	ops, nz := ph.ops, ph.nz
	st1 := s.store.Stats()
	rss := peakRSSMiB() // before the reference checks add their own memory
	m1, err := s.metrics()
	if err != nil {
		return err
	}
	dm := m1.sub(m0)
	fmt.Fprintf(o.out, "timed phase: %d requests in %d rounds: %v\n", len(ops), len(ph.roundWall), nz)
	sd := storeDelta{st1.Hits - st0.Hits, st1.Misses - st0.Misses, st1.Spills - st0.Spills}
	fmt.Fprintf(o.out, "counters: %+v store %+v\n", dm, sd)
	if err := guard(sh, ops, dm, sd.Misses); err != nil {
		s.stop()
		return err
	}

	var tl *serveTrace
	if o.trace {
		tl, err = traceServe(o, sh, s, rng)
		if err != nil {
			s.stop()
			return err
		}
	}
	if err := s.stop(); err != nil {
		return err
	}

	if err := checkServe(o, rep, ops); err != nil {
		return err
	}
	if o.trace {
		return serveLedger(o, rep, tl, nz, len(ops), sd, dm)
	}

	var walls, cpus []float64
	exactAsked, exactGot := 0, 0
	for _, op := range ops {
		walls = append(walls, ms(op.wall))
		cpus = append(cpus, ms(op.cpu))
		if op.req.exact() {
			exactAsked++
			if op.err == nil && !op.ans.sampled() {
				exactGot++
			}
		}
	}
	p50, _ := percentile(walls, 0.5)
	p90w, _ := percentile(walls, 0.9)
	c50, _ := percentile(cpus, 0.5)
	c90, ok90 := percentile(cpus, 0.9)
	if !ok90 {
		return fmt.Errorf("only %d requests: p90 needs %d samples beyond it", len(ops), minBeyond)
	}
	printClassTable(o, ops)
	fmt.Fprintf(o.out, "diagnostics: wall p90 %.3f ms, %.2f requests/s, %d samples\n",
		p90w, float64(len(ops))/nz.wall.Seconds(), len(ops))
	rep.add("setup_s", "s", median(times))
	rep.add("wall_s", "s", median(ph.roundWall))
	rep.add("cpu_s", "s", median(ph.roundCPU))
	rep.add("latency_p50_ms", "ms", p50)
	rep.add("cpu_ms_p50", "ms", c50)
	rep.add("cpu_ms_p90", "ms", c90)
	rep.add("ok_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.add("exact_ratio", "ratio", float64(exactGot)/float64(exactAsked))
	rep.add("peak_rss_mb", "MiB", rss)
	return nil
}

// printClassTable prints the median wall and CPU per request class and
// endpoint.
func printClassTable(o *options, ops []op) {
	walls, cpus := map[string][]float64{}, map[string][]float64{}
	for _, op := range ops {
		k := op.req.endpoint + "/" + op.req.class.name
		walls[k] = append(walls[k], ms(op.wall))
		cpus[k] = append(cpus[k], ms(op.cpu))
	}
	fmt.Fprintf(o.out, "%-18s %6s %12s %12s\n", "request", "count", "wall p50 ms", "cpu p50 ms")
	for _, k := range sortedKeys(walls) {
		fmt.Fprintf(o.out, "%-18s %6d %12.2f %12.2f\n", k, len(walls[k]), median(walls[k]), median(cpus[k]))
	}
}

// guard fails the run when the timed phase did not run the code path the
// workload names: every response must state its class's rung, and the
// server's own tier counters must agree.
func guard(sh shape, ops []op, dm counters, misses int64) error {
	want := map[string]int64{}
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		if !onRung(op.req.class.rung, op.ans) {
			return fmt.Errorf("%w: %s answered degraded=%v sampled=%v, not on the %s rung",
				errGuard, op.req.key(), op.ans.degraded(), op.ans.sampled(), op.req.class.rung)
		}
		want[op.req.class.rung]++
	}
	got := map[string]int64{"auto-sampling": dm.Sampling, "columnar": dm.Columnar, "seek": dm.Seek}
	for rung, n := range got {
		if n != want[rung] {
			return fmt.Errorf("%w: /metrics counts %d %s answers, the responses %d", errGuard, n, rung, want[rung])
		}
	}
	if d := want["auto-sampling"] + want["columnar"]; dm.Degraded != d {
		return fmt.Errorf("%w: /metrics counts %d degraded answers, want %d", errGuard, dm.Degraded, d)
	}
	if sh.hardBudget == 0 && misses != 0 {
		return fmt.Errorf("%w: %d store misses on a warm in-memory store", errGuard, misses)
	}
	return nil
}

// checkServe verifies every answer and counts operations; a failed
// operation keeps its error in ops.
func checkServe(o *options, rep *report, ops []op) error {
	recorded, err := recordedDigests(o)
	if err != nil {
		return err
	}
	v := newVerdicts(recorded)
	for _, op := range ops {
		if op.err == nil {
			r, a := op.req, op.ans
			v.add(r.key(), a.digest, func() error { return serveReference(o.seed, r, a) })
		}
	}
	v.resolve(2)
	if err := v.record(o); err != nil {
		return err
	}
	for i := range ops {
		rep.attempted++
		err := ops[i].err
		if err == nil {
			err = v.verdict(ops[i].req.key(), ops[i].ans.digest)
		}
		if err != nil {
			rep.failed++
			rep.failures = append(rep.failures, fmt.Sprintf("%s: %v", ops[i].req.key(), err))
			ops[i].err = err
		}
	}
	return nil
}

var errMismatch = errors.New("answer differs from the reference")
