package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
)

// testServer builds a Server with small, test-friendly bounds.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Store:          synth.NewStore(1 << 26),
		DefaultTimeout: 30 * time.Second,
		DegradeWindow:  50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSONE posts v and decodes a 200 response body into out (if
// non-nil), returning the status code, raw body, and any transport or
// decode error. Safe to call from non-test goroutines.
func postJSONE(url string, v any, out any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, raw, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("decoding %s: %w", raw, err)
		}
	}
	return resp.StatusCode, raw, nil
}

// postJSON is postJSONE with errors fatal to the test.
func postJSON(t *testing.T, url string, v any, out any) (int, []byte) {
	t.Helper()
	code, raw, err := postJSONE(url, v, out)
	if err != nil {
		t.Fatal(err)
	}
	return code, raw
}

// getJSON fetches url and decodes a 200 into out.
func getJSON(t *testing.T, url string, out any) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

// errKind extracts the structured error kind from a non-2xx body.
func errKind(t *testing.T, raw []byte) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("error body %q is not the structured envelope: %v", raw, err)
	}
	return eb.Error.Kind
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := testServer(t, nil)
	if code, _ := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz = %d", code)
	}
	var m map[string]any
	if code, _ := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, key := range []string{"requests_total", "inflight_bytes", "admission_queue", "store", "ready"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	var w struct {
		Workloads []string `json:"workloads"`
	}
	if code, _ := getJSON(t, ts.URL+"/v1/workloads", &w); code != 200 || len(w.Workloads) == 0 {
		t.Fatalf("workloads = %d with %d entries", code, len(w.Workloads))
	}
}

// A sweep over the service must agree exactly with the library run
// directly: the HTTP layer adds robustness, not noise.
func TestSweepMatchesLibrary(t *testing.T) {
	_, ts := testServer(t, nil)
	req := SweepRequest{
		Workload:      "eqntott",
		Instructions:  120_000,
		LineSize:      32,
		Cells:         []CellSpec{{Sets: 64, Assoc: 1}, {Sets: 128, Assoc: 2}, {Sets: 256, Assoc: 4}},
		CountDistinct: true,
	}
	var got SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", req, &got); code != 200 {
		t.Fatalf("sweep = %d: %s", code, raw)
	}
	if got.Degraded {
		t.Fatalf("unexpected degraded response: %s", got.DegradedReason)
	}

	prof, err := synth.Lookup("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	refs, release, err := synth.NewStore(1<<26).Instr(prof, 0, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	p := sweep.Pass{LineSize: 32, CountDistinct: true,
		Cells: []sweep.Cell{{Sets: 64, Assoc: 1}, {Sets: 128, Assoc: 2}, {Sets: 256, Assoc: 4}}}
	want, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != want.Accesses || got.Distinct != want.Distinct {
		t.Fatalf("totals: got %d/%d, want %d/%d", got.Accesses, got.Distinct, want.Accesses, want.Distinct)
	}
	for i, c := range got.Cells {
		if c.Misses != want.Misses[i] {
			t.Errorf("cell %d: misses %d, want %d", i, c.Misses, want.Misses[i])
		}
	}

	// The admitted request must be visible on /metrics.
	var m map[string]any
	if code, _ := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if v, _ := m["admitted_total"].(float64); v < 1 {
		t.Errorf("admitted_total = %v after a successful sweep, want >= 1", m["admitted_total"])
	}
}

func TestReplayMatchesLibrary(t *testing.T) {
	_, ts := testServer(t, nil)
	req := ReplayRequest{
		Workload:     "eqntott",
		Instructions: 100_000,
		Engines: []EngineSpec{
			{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}},
			{Kind: "stream", Size: 8192, LineSize: 16, Assoc: 1, Depth: 4, Link: LinkSpec{Name: "highperf"}},
		},
	}
	var got ReplayResponse
	if code, raw := postJSON(t, ts.URL+"/v1/replay", req, &got); code != 200 {
		t.Fatalf("replay = %d: %s", code, raw)
	}
	if len(got.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(got.Results))
	}

	prof, err := synth.Lookup("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	_, runs, release, err := synth.NewStore(1<<26).InstrRuns(context.Background(), prof, 0, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	engines := make([]fetch.Engine, len(req.Engines))
	for i, spec := range req.Engines {
		if engines[i], err = spec.build(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := replay.Replay(context.Background(), runs, engines)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Results[i].Misses != want[i].Misses || got.Results[i].StallCycles != want[i].StallCycles {
			t.Errorf("engine %d: got %+v, want %+v", i, got.Results[i], want[i])
		}
	}
}

func TestExhibitEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)
	var got ExhibitResponse
	if code, raw := getJSON(t, ts.URL+"/v1/exhibit/table2", &got); code != 200 {
		t.Fatalf("exhibit = %d: %s", code, raw)
	}
	if got.Text == "" || got.Name != "table2" {
		t.Fatalf("empty exhibit: %+v", got)
	}
	if code, raw := getJSON(t, ts.URL+"/v1/exhibit/nonesuch", nil); code != 404 {
		t.Fatalf("unknown exhibit = %d: %s", code, raw)
	} else if kind := errKind(t, raw); kind != "not-found" {
		t.Fatalf("kind = %q, want not-found", kind)
	}
}

func TestBadRequestsAreStructured400s(t *testing.T) {
	_, ts := testServer(t, nil)
	cell := []CellSpec{{Sets: 64, Assoc: 1}}
	bank := []EngineSpec{{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}}
	cases := []struct {
		path string
		body any // nil: GET
	}{
		{"/v1/sweep", SweepRequest{Workload: "nonesuch", LineSize: 32, Cells: cell}},
		{"/v1/sweep", SweepRequest{Workload: "eqntott", LineSize: 33, Cells: cell}},
		{"/v1/sweep", SweepRequest{Workload: "eqntott", LineSize: 32}},
		{"/v1/sweep", SweepRequest{Workload: "eqntott", LineSize: 32, Cells: []CellSpec{{Sets: 63, Assoc: 1}}}},
		// Negative scale fields never run silently at the default.
		{"/v1/sweep", SweepRequest{Workload: "eqntott", Instructions: -1, LineSize: 32, Cells: cell}},
		{"/v1/sweep", SweepRequest{Workload: "eqntott", LineSize: 32, Cells: cell, TimeoutMillis: -1}},
		{"/v1/replay", ReplayRequest{Workload: "eqntott", Instructions: -1, Engines: bank}},
		{"/v1/replay", ReplayRequest{Workload: "eqntott", Engines: bank, TimeoutMillis: -1}},
		// Query integers parse whole, in decimal, and non-negative: no
		// prefix parse ("1e6" as 1) and no silent default ("-5" as 2M).
		{"/v1/exhibit/table2?n=1e6", nil},
		{"/v1/exhibit/table2?n=12abc", nil},
		{"/v1/exhibit/table2?n=0x10", nil},
		{"/v1/exhibit/table2?n=-5", nil},
		{"/v1/exhibit/table2?trials=-3", nil},
		{"/v1/exhibit/table2?trials=2.5", nil},
		{"/v1/exhibit/table2?seed=-1", nil},
		{"/v1/exhibit/table2?seed=7x", nil},
		{"/v1/exhibit/table2?timeout_ms=-1", nil},
		{"/v1/exhibit/table2?timeout_ms=1s", nil},
	}
	for i, c := range cases {
		var code int
		var raw []byte
		if c.body == nil {
			code, raw = getJSON(t, ts.URL+c.path, nil)
		} else {
			code, raw = postJSON(t, ts.URL+c.path, c.body, nil)
		}
		if code != 400 {
			t.Errorf("case %d (%s): code = %d, want 400: %s", i, c.path, code, raw)
			continue
		}
		if kind := errKind(t, raw); kind != "bad-request" {
			t.Errorf("case %d: kind = %q, want bad-request", i, kind)
		}
	}

	// Malformed JSON and unknown fields are 400 too, not 500.
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"workload": 17`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON = %d, want 400", resp.StatusCode)
	}
}

// Prefetch lines and stream depth are bounded by the L1's line count: past
// it a request is a structured 400, before admission weighs the trace; at
// it the replay runs.
func TestEngineKnobsBoundedByL1Lines(t *testing.T) {
	_, ts := testServer(t, nil)
	l1l2 := LinkSpec{Name: "l1l2"}
	for _, tc := range []struct {
		spec EngineSpec
		code int
	}{
		{EngineSpec{Kind: "stream", Size: 8192, LineSize: 16, Assoc: 1, Link: l1l2, Depth: 1 << 21}, 400},
		{EngineSpec{Kind: "stream", Size: 8192, LineSize: 16, Assoc: 1, Link: l1l2, Depth: 513}, 400},
		{EngineSpec{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: l1l2, PrefetchLines: 1 << 20}, 400},
		{EngineSpec{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: l1l2, PrefetchLines: 1 << 58}, 400},
		{EngineSpec{Kind: "bypass", Size: 8192, LineSize: 32, Assoc: 1, Link: l1l2, PrefetchLines: 257}, 400},
		{EngineSpec{Kind: "stream", Size: 8192, LineSize: 16, Assoc: 1, Link: l1l2, Depth: 512}, 200},
		{EngineSpec{Kind: "blocking", Size: 8192, LineSize: 32, Assoc: 1, Link: l1l2, PrefetchLines: 256}, 200},
	} {
		req := ReplayRequest{Workload: "eqntott", Instructions: 20_000, Engines: []EngineSpec{tc.spec}}
		code, raw := postJSON(t, ts.URL+"/v1/replay", req, nil)
		if code != tc.code {
			t.Errorf("%+v: code %d, want %d: %s", tc.spec, code, tc.code, raw)
			continue
		}
		if code == 400 && errKind(t, raw) != "bad-request" {
			t.Errorf("%+v: %s, want a bad-request", tc.spec, raw)
		}
	}
}

// A request with a deadline inside the degrade window answers at reduced
// fidelity and says so, instead of burning its whole budget and timing out.
// Line sizes below one instruction are a structured 400 on every path —
// explicit set or time sampling, the exact pass, and the exact pass of a
// store whose budget admits the runs but not the refs — not an internal
// error from the kernel, which settles whole instructions per line.
func TestSubInstructionLineSizeRejected(t *testing.T) {
	_, ts := testServer(t, nil)
	_, tight := testServer(t, func(c *Config) { c.Store = synth.NewStoreLimits(1<<26, 1<<19) })
	for _, line := range []int{1, 2} {
		for name, tc := range map[string]struct {
			url  string
			spec *SamplingSpec
		}{
			"set":   {ts.URL, &SamplingSpec{Set: 16}},
			"time":  {ts.URL, &SamplingSpec{Window: 2000, Period: 8000}},
			"exact": {ts.URL, nil},
			"runs":  {tight.URL, nil},
		} {
			req := SweepRequest{Workload: "eqntott", Instructions: 100_000, LineSize: line,
				Cells: []CellSpec{{Sets: 256, Assoc: 1}}, Sampling: tc.spec}
			code, raw := postJSON(t, tc.url+"/v1/sweep", req, nil)
			if code != 400 || errKind(t, raw) != "bad-request" {
				t.Errorf("line %d %s: code %d: %s, want a bad-request 400", line, name, code, raw)
			}
		}
	}
}

func TestNearDeadlineDegrades(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.DegradeWindow = 10 * time.Second })
	req := SweepRequest{
		Workload:      "eqntott",
		Instructions:  4_000_000,
		LineSize:      32,
		Cells:         []CellSpec{{Sets: 64, Assoc: 1}},
		TimeoutMillis: 5_000, // inside the 10s window
	}
	var got SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", req, &got); code != 200 {
		t.Fatalf("sweep = %d: %s", code, raw)
	}
	if !got.Degraded {
		t.Fatal("near-deadline response not marked degraded")
	}
	if got.Instructions >= 4_000_000 {
		t.Fatalf("instructions not reduced: %d", got.Instructions)
	}
	if !strings.Contains(got.DegradedReason, "degrade window") {
		t.Fatalf("reason does not explain the window: %q", got.DegradedReason)
	}
}

// When the store refuses to materialize the trace (hard budget), sweep and
// replay fall back to streaming regeneration: same numbers, degraded=true.
func TestOverBudgetStreamsDegraded(t *testing.T) {
	run := func(t *testing.T, hardBudget int64) (SweepResponse, ReplayResponse) {
		t.Helper()
		_, ts := testServer(t, func(c *Config) {
			c.Store = synth.NewStoreLimits(1<<26, hardBudget)
		})
		sreq := SweepRequest{Workload: "eqntott", Instructions: 100_000, LineSize: 32,
			Cells: []CellSpec{{Sets: 64, Assoc: 1}, {Sets: 512, Assoc: 2}}}
		var sresp SweepResponse
		if code, raw := postJSON(t, ts.URL+"/v1/sweep", sreq, &sresp); code != 200 {
			t.Fatalf("sweep = %d: %s", code, raw)
		}
		rreq := ReplayRequest{Workload: "eqntott", Instructions: 100_000,
			Engines: []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}}}
		var rresp ReplayResponse
		if code, raw := postJSON(t, ts.URL+"/v1/replay", rreq, &rresp); code != 200 {
			t.Fatalf("replay = %d: %s", code, raw)
		}
		return sresp, rresp
	}

	fullSweep, fullReplay := run(t, 0)   // unlimited: materialized path
	degSweep, degReplay := run(t, 1<<10) // 1 KiB: every trace over budget

	if fullSweep.Degraded || fullReplay.Degraded {
		t.Fatal("unlimited store produced degraded responses")
	}
	if !degSweep.Degraded || !degReplay.Degraded {
		t.Fatalf("over-budget store did not degrade: sweep=%v replay=%v", degSweep.Degraded, degReplay.Degraded)
	}
	// Streaming regeneration is bit-exact with materialization.
	for i := range fullSweep.Cells {
		if degSweep.Cells[i].Misses != fullSweep.Cells[i].Misses {
			t.Errorf("sweep cell %d: streamed %d != materialized %d", i, degSweep.Cells[i].Misses, fullSweep.Cells[i].Misses)
		}
	}
	if degReplay.Results[0] != fullReplay.Results[0] {
		t.Errorf("replay: streamed %+v != materialized %+v", degReplay.Results[0], fullReplay.Results[0])
	}
}

// Identical concurrent requests share one execution.
func TestSingleflightDedup(t *testing.T) {
	var simulations atomic.Int64
	gate := make(chan struct{})
	s, ts := testServer(t, func(c *Config) {
		c.FaultHook = func(stage string) {
			simulations.Add(1)
			<-gate
		}
	})
	req := SweepRequest{Workload: "eqntott", Instructions: 50_000, LineSize: 32,
		Cells: []CellSpec{{Sets: 64, Assoc: 1}}}

	const callers = 6
	var wg sync.WaitGroup
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = postJSONE(ts.URL+"/v1/sweep", req, nil)
		}(i)
	}
	// Wait until the leader is inside the hook, give followers time to
	// pile onto the flight, then open the gate.
	waitFor(t, func() bool { return simulations.Load() == 1 })
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i, code := range codes {
		if code != 200 {
			t.Errorf("caller %d: code = %d", i, code)
		}
	}
	if n := simulations.Load(); n != 1 {
		t.Fatalf("%d simulations ran for %d identical requests, want 1", n, callers)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if hits, _ := m["dedup_hits_total"].(float64); hits != callers-1 {
		t.Errorf("dedup_hits_total = %v, want %d", m["dedup_hits_total"], callers-1)
	}
	_ = s
}

// When admission capacity is held and the queue is full, new work is shed
// with 429 + Retry-After, and the server recovers once capacity frees.
func TestAdmissionShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	var entered atomic.Int64
	// Replay weighs synth.TraceBytes(n, true) and MaxInstructions is
	// derived as capacity/TraceBytes(1, true), so one max-scale replay
	// fills the admission capacity exactly.
	_, ts := testServer(t, func(c *Config) {
		c.MaxInflightBytes = synth.TraceBytes(50_000, true)
		c.MaxQueue = -1 // no waiting: shed immediately
		c.FaultHook = func(string) {
			entered.Add(1)
			<-gate
		}
	})
	defer close(gate)

	engines := []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}}
	hold := ReplayRequest{Workload: "eqntott", Instructions: 50_000, Engines: engines}
	go postJSONE(ts.URL+"/v1/replay", hold, nil)
	waitFor(t, func() bool { return entered.Load() == 1 })

	// A different request (distinct key, so no dedup) cannot be admitted.
	shed := ReplayRequest{Workload: "espresso", Instructions: 50_000, Engines: engines}
	body, _ := json.Marshal(shed)
	resp, err := http.Post(ts.URL+"/v1/replay", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("code = %d, want 429: %s", resp.StatusCode, raw)
	}
	if kind := errKind(t, raw); kind != "queue-full" {
		t.Fatalf("kind = %q, want queue-full", kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// A panic on the request path becomes a structured 500 and the daemon
// keeps serving.
func TestPanicIsolated(t *testing.T) {
	var arm atomic.Bool
	_, ts := testServer(t, func(c *Config) {
		c.FaultHook = func(string) {
			if arm.Load() {
				panic("injected handler panic")
			}
		}
	})
	arm.Store(true)
	req := SweepRequest{Workload: "eqntott", Instructions: 50_000, LineSize: 32,
		Cells: []CellSpec{{Sets: 64, Assoc: 1}}}
	code, raw := postJSON(t, ts.URL+"/v1/sweep", req, nil)
	if code != 500 {
		t.Fatalf("code = %d, want 500: %s", code, raw)
	}
	if kind := errKind(t, raw); kind != "panic" {
		t.Fatalf("kind = %q, want panic", kind)
	}

	// The server survived: the same request now succeeds.
	arm.Store(false)
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", req, nil); code != 200 {
		t.Fatalf("post-panic request = %d: %s", code, raw)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if n, _ := m["panics_recovered_total"].(float64); n < 1 {
		t.Errorf("panics_recovered_total = %v, want >= 1", m["panics_recovered_total"])
	}
}

// A request deadline that expires mid-simulation yields a structured 504.
func TestDeadlineIsStructured504(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.DegradeWindow = -1 // force the timeout instead of degrading around it
		c.FaultHook = func(string) { time.Sleep(30 * time.Millisecond) }
	})
	req := SweepRequest{Workload: "eqntott", Instructions: 2_000_000, LineSize: 32,
		Cells: []CellSpec{{Sets: 64, Assoc: 1}}, TimeoutMillis: 20}
	code, raw := postJSON(t, ts.URL+"/v1/sweep", req, nil)
	if code != 504 {
		t.Fatalf("code = %d, want 504: %s", code, raw)
	}
	if kind := errKind(t, raw); kind != "deadline" {
		t.Fatalf("kind = %q, want deadline", kind)
	}
}

// Run drains: a request in flight when shutdown begins still completes,
// readiness flips to 503, and Run returns cleanly.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Store:         synth.NewStore(1 << 26),
		DrainTimeout:  10 * time.Second,
		DegradeWindow: time.Millisecond,
		FaultHook: func(string) {
			once.Do(func() { close(entered) })
			<-gate
		},
	}
	s := New(cfg)
	// Before Run starts the server is not serving: /readyz says draining.
	assertDraining(t, s, "before Run")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == 200
	})

	// Issue a request that blocks inside the simulation...
	req := SweepRequest{Workload: "eqntott", Instructions: 50_000, LineSize: 32,
		Cells: []CellSpec{{Sets: 64, Assoc: 1}}}
	type outcome struct {
		code int
		raw  []byte
	}
	reqDone := make(chan outcome, 1)
	go func() {
		code, raw, _ := postJSONE(base+"/v1/sweep", req, nil)
		reqDone <- outcome{code, raw}
	}()
	<-entered

	// ...then begin shutdown while it is in flight.
	cancel()
	waitFor(t, func() bool { return !s.Ready() })
	assertDraining(t, s, "during drain")

	// The in-flight request is NOT dropped: unblock it and it completes.
	close(gate)
	select {
	case out := <-reqDone:
		if out.code != 200 {
			t.Fatalf("in-flight request during drain = %d: %s", out.code, out.raw)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed during drain")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}

// Exhibit requests with clamped trials report degradation explicitly.
// assertDraining asks s's /readyz through its handler — during a drain
// the listener is already closed — and requires the structured 503 with
// kind "draining".
func assertDraining(t *testing.T, s *Server, when string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %s = %d, want 503: %s", when, rec.Code, rec.Body)
	}
	if kind := errKind(t, rec.Body.Bytes()); kind != "draining" {
		t.Fatalf("/readyz %s: kind = %q, want draining", when, kind)
	}
}

func TestExhibitClampsTrials(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.MaxTrials = 2 })
	var got ExhibitResponse
	url := fmt.Sprintf("%s/v1/exhibit/table2?trials=9", ts.URL)
	if code, raw := getJSON(t, url, &got); code != 200 {
		t.Fatalf("exhibit = %d: %s", code, raw)
	}
	if !got.Degraded || got.Trials != 2 {
		t.Fatalf("trials clamp not reported: degraded=%v trials=%d", got.Degraded, got.Trials)
	}
}

// --- sampling knob ------------------------------------------------------

// The sampling knob: an explicit sampling spec returns estimates with
// confidence intervals and a SamplingInfo block, NOT marked degraded —
// reduced fidelity was the ask.
func TestSamplingKnob(t *testing.T) {
	_, ts := testServer(t, nil)

	// Exact baseline for the accuracy cross-check.
	exactReq := SweepRequest{Workload: "eqntott", Instructions: 100_000, LineSize: 32,
		Cells: []CellSpec{{Sets: 256, Assoc: 1}, {Sets: 1024, Assoc: 1}}}
	var exact SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", exactReq, &exact); code != 200 {
		t.Fatalf("exact sweep = %d: %s", code, raw)
	}
	if exact.Sampling != nil {
		t.Fatal("exact sweep response carries a sampling block")
	}

	sreq := exactReq
	sreq.Sampling = &SamplingSpec{Set: 16}
	var sset SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", sreq, &sset); code != 200 {
		t.Fatalf("set-sampled sweep = %d: %s", code, raw)
	}
	if sset.Degraded {
		t.Errorf("requested sampling marked degraded: %q", sset.DegradedReason)
	}
	if sset.Sampling == nil || sset.Sampling.Mode != "set" {
		t.Fatalf("sampling info = %+v, want mode set", sset.Sampling)
	}
	if c := sset.Sampling.Coverage; c <= 0 || c > 0.2 {
		t.Errorf("set-sampled coverage %v outside (0, 0.2]", c)
	}
	for i, c := range sset.Cells {
		exactMPI := float64(exact.Cells[i].Misses) / float64(exact.Accesses)
		if c.MPI <= 0 || c.CI95 <= 0 {
			t.Errorf("cell %d: sampled MPI %v / CI95 %v not populated", i, c.MPI, c.CI95)
		}
		tol := 3 * c.CI95
		if fl := 0.5 * exactMPI; tol < fl {
			tol = fl
		}
		if d := c.MPI - exactMPI; d < -tol || d > tol {
			t.Errorf("cell %d: sampled MPI %v vs exact %v beyond tolerance %v", i, c.MPI, exactMPI, tol)
		}
	}

	treq := exactReq
	treq.Sampling = &SamplingSpec{Window: 1000, Period: 4000}
	var stime SweepResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", treq, &stime); code != 200 {
		t.Fatalf("time-sampled sweep = %d: %s", code, raw)
	}
	if stime.Sampling == nil || stime.Sampling.Mode != "time" {
		t.Fatalf("sampling info = %+v, want mode time", stime.Sampling)
	}
	if c := stime.Sampling.Coverage; c < 0.2 || c > 0.3 {
		t.Errorf("warm time coverage %v, want ~0.25", c)
	}

	rreq := ReplayRequest{Workload: "eqntott", Instructions: 100_000,
		Engines:  []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}},
		Sampling: &SamplingSpec{Window: 1000, Period: 4000, Skip: true}}
	var rresp ReplayResponse
	if code, raw := postJSON(t, ts.URL+"/v1/replay", rreq, &rresp); code != 200 {
		t.Fatalf("sampled replay = %d: %s", code, raw)
	}
	if rresp.Degraded {
		t.Errorf("requested sampling marked degraded: %q", rresp.DegradedReason)
	}
	if rresp.Sampling == nil || rresp.Sampling.Mode != "time" {
		t.Fatalf("replay sampling info = %+v, want mode time", rresp.Sampling)
	}
	if got := rresp.Results[0]; got.MPI <= 0 || got.CI95 <= 0 {
		t.Errorf("sampled engine result missing estimate: %+v", got)
	}
	if m := rresp.Sampling.MeasuredInstructions; m <= 0 || m >= 100_000 {
		t.Errorf("measured instructions %d, want a strict subset of the trace", m)
	}
}

// Malformed sampling specs are structured 400s, including the replay-side
// rejection of set sampling and a modulus the grid cannot cover.
func TestSamplingSpecValidation(t *testing.T) {
	_, ts := testServer(t, nil)
	sweepURL, replayURL := ts.URL+"/v1/sweep", ts.URL+"/v1/replay"
	cells := []CellSpec{{Sets: 64, Assoc: 1}}
	engines := []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}}
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"both dimensions", sweepURL, SweepRequest{Workload: "sed", LineSize: 32, Cells: cells,
			Sampling: &SamplingSpec{Set: 16, Window: 100, Period: 400}}},
		{"neither dimension", sweepURL, SweepRequest{Workload: "sed", LineSize: 32, Cells: cells,
			Sampling: &SamplingSpec{}}},
		{"non-power-of-two set", sweepURL, SweepRequest{Workload: "sed", LineSize: 32, Cells: cells,
			Sampling: &SamplingSpec{Set: 3}}},
		{"set exceeds grid", sweepURL, SweepRequest{Workload: "sed", LineSize: 32, Cells: cells,
			Sampling: &SamplingSpec{Set: 128}}},
		{"period below window", sweepURL, SweepRequest{Workload: "sed", LineSize: 32, Cells: cells,
			Sampling: &SamplingSpec{Window: 400, Period: 100}}},
		{"skip with set mode", sweepURL, SweepRequest{Workload: "sed", LineSize: 32, Cells: cells,
			Sampling: &SamplingSpec{Set: 16, Skip: true}}},
		{"set sampling on replay", replayURL, ReplayRequest{Workload: "sed", Engines: engines,
			Sampling: &SamplingSpec{Set: 16}}},
	}
	for _, tc := range cases {
		code, raw := postJSON(t, tc.url, tc.body, nil)
		if code != 400 || errKind(t, raw) != "bad-request" {
			t.Errorf("%s: got %d %s, want structured 400", tc.name, code, raw)
		}
	}
}

// A sweep and a replay of the same trace share one store entry holding
// only the run compaction: the server never materializes the 16-byte
// per-reference trace.
func TestSweepAndReplayShareOneRunsEntry(t *testing.T) {
	store := synth.NewStore(1 << 26)
	_, ts := testServer(t, func(c *Config) { c.Store = store })
	const n = 100_000
	sreq := SweepRequest{Workload: "eqntott", Instructions: n, LineSize: 32,
		Cells: []CellSpec{{Sets: 256, Assoc: 1}, {Sets: 1024, Assoc: 1}}}
	if code, raw := postJSON(t, ts.URL+"/v1/sweep", sreq, nil); code != 200 {
		t.Fatalf("sweep = %d: %s", code, raw)
	}
	rreq := ReplayRequest{Workload: "eqntott", Instructions: n,
		Engines: []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}}}
	if code, raw := postJSON(t, ts.URL+"/v1/replay", rreq, nil); code != 200 {
		t.Fatalf("replay = %d: %s", code, raw)
	}
	st := store.Stats()
	if st.Entries != 1 {
		t.Errorf("store holds %d trace entries, want 1 shared by both endpoints", st.Entries)
	}
	if refs := synth.TraceBytes(n, false); st.IdleBytes >= refs {
		t.Errorf("store keeps %d idle bytes, want fewer than the %d bytes of the ref trace", st.IdleBytes, refs)
	}
}
