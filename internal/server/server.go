// Package server is ibsimd's HTTP service layer: a hardened JSON API over
// the simulation library's three heavy primitives — the single-pass sweep
// engine (POST /v1/sweep), the fan-out replay driver (POST /v1/replay), and
// the exhibit renderers (GET /v1/exhibit/{name}) — plus /healthz, /readyz,
// and /metrics (expvar).
//
// Robustness is the design center, not an afterthought:
//
//   - Admission control: every simulation request is weighed by its
//     estimated trace footprint (synth.TraceBytes) and admitted through a
//     weighted semaphore with a bounded FIFO wait queue; overflow is shed
//     as 429 + Retry-After instead of accumulating.
//   - Deadlines: each request runs under a context deadline (client-chosen
//     via timeout_ms, clamped to server bounds) that propagates into the
//     experiment/sweep/replay layers, so no request can hold capacity
//     forever.
//   - Deduplication: identical in-flight requests (canonical request hash)
//     share one execution — the repeated design-space queries the paper's
//     Figure 5 variability methodology generates cost one simulation, not N.
//   - Panic isolation: a handler panic (including a worker panic surfaced
//     as *experiments.WorkerError) becomes a structured 500; the daemon
//     never dies with a request.
//   - Graceful degradation, in tiers: requests beyond the server maxima are
//     clamped, and requests with near deadlines run at reduced scale. Each
//     sweep or replay is one synth.Store.Acquire call plus one pass: the
//     store hands back the cheapest trace its hard budget admits — the
//     memoized run compaction, else the on-disk columnar trace, else
//     checkpointed regeneration in O(1) memory — and the sweep kernel or
//     replay driver reads whichever it got. Every tier yields the same
//     numbers, so an exact answer read from disk or regenerated is still
//     exact, merely slower. Sampled simulation (95% confidence intervals)
//     runs only when a request asks for it through the sampling knob, and
//     is served as asked from any tier. Every reduced answer, and every
//     exact answer the runs could not serve, carries an explicit
//     "degraded": true marker.
//   - Graceful shutdown: Run drains in-flight requests on context
//     cancellation (SIGTERM in cmd/ibsimd) before returning.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"ibsim"
	"ibsim/internal/experiments"
	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a production default.
type Config struct {
	// Store supplies memoized traces; nil uses synth.DefaultStore. Give a
	// hard-budgeted store (synth.NewStoreLimits) to bound materialized
	// trace memory: requests whose run compaction exceeds the budget are
	// read from the columnar spill, and those whose spill exceeds it too
	// from checkpointed regeneration (see Store.Acquire).
	Store *synth.Store
	// MaxInflightBytes is the weighted-semaphore capacity: the summed
	// trace-footprint estimate of concurrently admitted requests (default
	// 1 GiB).
	MaxInflightBytes int64
	// MaxQueue bounds how many requests may wait for admission beyond
	// capacity (default 16, negative for no queue at all); the rest get
	// 429 + Retry-After.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 60s); MaxTimeout caps client-requested deadlines
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 30s).
	DrainTimeout time.Duration
	// ReadHeaderTimeout and ReadTimeout guard the HTTP read path against
	// slow-loris peers (defaults 5s / 2m).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxInstructions caps a request's per-workload instruction budget;
	// larger asks are clamped and marked degraded (default 8M, lowered if
	// MaxInflightBytes cannot admit it).
	MaxInstructions int64
	// MaxTrials caps figure5-style repeat trials (default 10).
	MaxTrials int
	// MaxEngines and MaxCells bound a replay bank / sweep grid (defaults
	// 64 / 256); beyond them the request is rejected as bad, not clamped.
	MaxEngines int
	MaxCells   int
	// DegradeWindow: a request whose effective deadline is shorter than
	// this runs at reduced fidelity — instructions clamped to
	// DegradeInstructions, trials to 1 — and is marked degraded (defaults
	// 250ms / 100k). Negative disables deadline-based degradation.
	DegradeWindow       time.Duration
	DegradeInstructions int64
	// FaultHook, when non-nil, is called at named stages ("run:sweep",
	// "run:replay", "run:exhibit") on the leader goroutine after
	// admission. It exists for the chaos suite and tests: a hook that
	// panics proves panic isolation, a hook that blocks holds capacity.
	FaultHook func(stage string)
	// Log receives operational messages; nil discards them (cmd/ibsimd
	// passes a stderr logger).
	Log *log.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = synth.DefaultStore
	}
	if c.MaxInflightBytes <= 0 {
		c.MaxInflightBytes = 1 << 30
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInstructions <= 0 {
		c.MaxInstructions = 8_000_000
	}
	// Admission must be able to grant the largest single request.
	if max := c.MaxInflightBytes / synth.TraceBytes(1, true); c.MaxInstructions > max && max > 0 {
		c.MaxInstructions = max
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 10
	}
	if c.MaxEngines <= 0 {
		c.MaxEngines = 64
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 256
	}
	if c.DegradeInstructions <= 0 {
		c.DegradeInstructions = 100_000
	}
	if c.DegradeWindow < 0 {
		c.DegradeWindow = 0
	} else if c.DegradeWindow == 0 {
		c.DegradeWindow = 250 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the ibsimd service. Create with New; serve with Run (managed
// listener + graceful drain) or mount Handler on an http.Server directly.
type Server struct {
	cfg     Config
	store   *synth.Store
	limiter *Limiter
	flights *flightGroup
	mux     *http.ServeMux
	handler http.Handler
	ready   atomic.Bool

	// ewmaMillis tracks a smoothed request duration for Retry-After
	// estimates.
	ewmaMillis atomic.Int64

	vars                                    *expvar.Map
	mRequests, mAdmitted, mRejected, mDedup expvar.Int
	mQueueTimeouts, mDegraded, mPanics      expvar.Int
	mCanceled, mColumnar, mSeek             expvar.Int
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		limiter: NewLimiter(cfg.MaxInflightBytes, cfg.MaxQueue),
		flights: newFlightGroup(),
		mux:     http.NewServeMux(),
	}
	s.vars = new(expvar.Map).Init()
	s.vars.Set("requests_total", &s.mRequests)
	s.vars.Set("admitted_total", &s.mAdmitted)
	s.vars.Set("rejected_429_total", &s.mRejected)
	s.vars.Set("queue_timeouts_total", &s.mQueueTimeouts)
	s.vars.Set("dedup_hits_total", &s.mDedup)
	s.vars.Set("degraded_total", &s.mDegraded)
	s.vars.Set("panics_recovered_total", &s.mPanics)
	s.vars.Set("canceled_total", &s.mCanceled)
	s.vars.Set("columnar_tier_total", &s.mColumnar)
	s.vars.Set("seek_tier_total", &s.mSeek)
	s.vars.Set("inflight_bytes", expvar.Func(func() any { return s.limiter.Used() }))
	s.vars.Set("admission_queue", expvar.Func(func() any { return s.limiter.Queued() }))
	s.vars.Set("ready", expvar.Func(func() any { return s.ready.Load() }))
	s.vars.Set("store", expvar.Func(func() any { return s.store.Stats() }))

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/replay", s.handleReplay)
	s.mux.HandleFunc("GET /v1/exhibit/{name}", s.handleExhibit)
	s.handler = s.recoverer(s.mux)
	return s
}

// Handler returns the fully middleware-wrapped handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Ready reports whether the server is accepting work (true between Run
// start and drain start).
func (s *Server) Ready() bool { return s.ready.Load() }

// InflightBytes returns the admitted trace-footprint weight — capacity
// currently held by running requests.
func (s *Server) InflightBytes() int64 { return s.limiter.Used() }

// QueueLen returns the number of requests waiting for admission.
func (s *Server) QueueLen() int { return s.limiter.Queued() }

// Run serves on ln until ctx is cancelled, then drains: the listener
// closes, /readyz flips to 503, and in-flight requests get up to
// Config.DrainTimeout to finish before Run returns. A clean drain returns
// nil.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		ErrorLog:          s.cfg.Log,
	}
	s.ready.Store(true)
	defer s.ready.Store(false)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		s.ready.Store(false)
		s.cfg.Log.Printf("draining: waiting up to %v for in-flight requests", s.cfg.DrainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := hs.Shutdown(dctx)
		<-errc // Serve has returned ErrServerClosed
		if err != nil {
			return fmt.Errorf("server: drain incomplete: %w", err)
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// recoverer is the outermost backstop: any panic that escapes a handler
// (the singleflight leader wrapper catches the simulation paths first)
// becomes a structured 500 instead of killing the daemon.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.mPanics.Add(1)
				s.cfg.Log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.writeError(w, ErrorDetail{Status: http.StatusInternalServerError, Kind: "panic",
					Message: fmt.Sprintf("handler panicked: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// --- plumbing -----------------------------------------------------------

// hook fires the configured fault hook.
func (s *Server) hook(stage string) {
	if s.cfg.FaultHook != nil {
		s.cfg.FaultHook(stage)
	}
}

// observe folds one request duration into the Retry-After estimator.
func (s *Server) observe(d time.Duration) {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	for {
		old := s.ewmaMillis.Load()
		next := ms
		if old > 0 {
			next = (7*old + ms) / 8
		}
		if s.ewmaMillis.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a shed request should wait before
// retrying: the smoothed request duration times the queue it would sit
// behind, clamped to [1, 60].
func (s *Server) retryAfterSeconds() int {
	ms := s.ewmaMillis.Load()
	if ms <= 0 {
		ms = 1000
	}
	est := (ms*int64(1+s.limiter.Queued()) + 999) / 1000
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return int(est)
}

// timeoutFor resolves a request's effective deadline from its timeout_ms.
func (s *Server) timeoutFor(millis int64) time.Duration {
	if millis <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(millis) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// errorFor classifies a simulation error into the wire envelope.
func (s *Server) errorFor(err error) *ErrorDetail {
	var we *experiments.WorkerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &ErrorDetail{Status: http.StatusGatewayTimeout, Kind: "deadline",
			Message: "request deadline exceeded before the simulation finished"}
	case errors.Is(err, context.Canceled):
		return &ErrorDetail{Status: 499, Kind: "canceled", Message: "client went away"}
	case errors.As(err, &we):
		return &ErrorDetail{Status: http.StatusInternalServerError, Kind: "worker-panic",
			Message: fmt.Sprintf("workload %q panicked in a simulation worker (isolated): %v", we.Workload, we.Recovered)}
	case errors.Is(err, synth.ErrOverBudget):
		return &ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "over-budget",
			Message: err.Error(), RetryAfterSeconds: s.retryAfterSeconds()}
	default:
		return &ErrorDetail{Status: http.StatusInternalServerError, Kind: "internal", Message: err.Error()}
	}
}

// writeError emits the structured error envelope.
func (s *Server) writeError(w http.ResponseWriter, det ErrorDetail) {
	body, _ := json.Marshal(ErrorBody{Error: det})
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if det.RetryAfterSeconds > 0 {
		h.Set("Retry-After", fmt.Sprint(det.RetryAfterSeconds))
	}
	w.WriteHeader(det.Status)
	w.Write(body)
}

// writeResponse emits a completed flight's response.
func (s *Server) writeResponse(w http.ResponseWriter, resp *response) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if resp.retryAfter > 0 {
		h.Set("Retry-After", fmt.Sprint(resp.retryAfter))
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// readJSON decodes a bounded request body, writing the 400/413 itself on
// failure.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, ErrorDetail{Status: http.StatusRequestEntityTooLarge, Kind: "bad-request",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
			Message: "malformed JSON request: " + err.Error()})
		return false
	}
	return true
}

// errResponse materializes an error envelope as a flight response.
func errResponse(det ErrorDetail) *response {
	body, _ := json.Marshal(ErrorBody{Error: det})
	return &response{status: det.Status, body: body, retryAfter: det.RetryAfterSeconds}
}

// okResponse materializes a 200 envelope.
func okResponse(v any, degraded bool) *response {
	body, err := json.Marshal(v)
	if err != nil {
		return errResponse(ErrorDetail{Status: http.StatusInternalServerError, Kind: "internal",
			Message: "encoding response: " + err.Error()})
	}
	return &response{status: http.StatusOK, body: body, degraded: degraded}
}

// runOutcome is what an endpoint's run function produces.
type runOutcome struct {
	value    any
	degraded bool
	err      *ErrorDetail
}

// execute is the shared robust request path: singleflight dedup on key,
// weighted admission, deadline, panic isolation, and structured responses.
// run does the actual simulation under the granted context.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, stage, key string, weight int64, timeout time.Duration, run func(ctx context.Context) runOutcome) {
	s.mRequests.Add(1)
	for attempt := 0; ; attempt++ {
		resp, leader, err := s.flights.do(r.Context(), key, func() *response {
			return s.lead(r, stage, weight, timeout, run)
		})
		if err != nil {
			// Our own client gave up while we were drafting behind a
			// leader; there is no one left to answer.
			s.mCanceled.Add(1)
			return
		}
		if !leader {
			if resp.canceled && attempt < 2 && r.Context().Err() == nil {
				// The leader's client vanished and took the flight with
				// it; we are still live, so run the request ourselves.
				continue
			}
			s.mDedup.Add(1)
		}
		if resp.canceled {
			// Leader path: our client is gone; nothing to write. Follower
			// path (attempts exhausted): shed with a retry hint.
			if leader {
				return
			}
			s.writeError(w, ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "canceled",
				Message: "shared execution was cancelled; retry", RetryAfterSeconds: 1})
			return
		}
		s.writeResponse(w, resp)
		return
	}
}

// lead runs one flight as its leader: admission, deadline, fault hook,
// simulation, and conversion of every failure mode — including a panic —
// into a structured response.
func (s *Server) lead(r *http.Request, stage string, weight int64, timeout time.Duration, run func(ctx context.Context) runOutcome) (resp *response) {
	defer func() {
		if rec := recover(); rec != nil {
			s.mPanics.Add(1)
			s.cfg.Log.Printf("panic in %s: %v\n%s", stage, rec, debug.Stack())
			resp = errResponse(ErrorDetail{Status: http.StatusInternalServerError, Kind: "panic",
				Message: fmt.Sprintf("request handler panicked (isolated): %v", rec)})
		}
	}()

	release, err := s.limiter.Acquire(r.Context(), weight)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.mRejected.Add(1)
			return errResponse(ErrorDetail{Status: http.StatusTooManyRequests, Kind: "queue-full",
				Message: "admission queue is full; retry later", RetryAfterSeconds: s.retryAfterSeconds()})
		case errors.Is(err, ErrTooHeavy):
			return errResponse(ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "over-budget",
				Message: err.Error(), RetryAfterSeconds: s.retryAfterSeconds()})
		case errors.Is(err, context.DeadlineExceeded):
			s.mQueueTimeouts.Add(1)
			return errResponse(ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "queue-timeout",
				Message: "deadline expired while queued for admission", RetryAfterSeconds: s.retryAfterSeconds()})
		default: // context.Canceled: the client hung up while we queued
			s.mCanceled.Add(1)
			return &response{canceled: true}
		}
	}
	defer release()
	s.mAdmitted.Add(1)

	start := time.Now()
	defer func() { s.observe(time.Since(start)) }()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	s.hook(stage)
	out := run(ctx)
	if out.err != nil {
		if out.err.Kind == "canceled" {
			s.mCanceled.Add(1)
			return &response{canceled: true}
		}
		return errResponse(*out.err)
	}
	if out.degraded {
		s.mDegraded.Add(1)
	}
	return okResponse(out.value, out.degraded)
}

// --- trivial endpoints --------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		s.writeError(w, ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "draining",
			Message: "server is draining or not yet serving"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s.vars.String())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"workloads": ibsim.Workloads()})
}

// --- /v1/sweep ----------------------------------------------------------

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	prof, err := synth.Lookup(req.Workload)
	if err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()})
		return
	}
	if err := checkScale(req.Instructions, req.TimeoutMillis); err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()})
		return
	}
	if req.LineSize < trace.InstrBytes || req.LineSize&(req.LineSize-1) != 0 {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
			Message: fmt.Sprintf("line_size %d must be a power of two >= the %d-byte instruction size", req.LineSize, trace.InstrBytes)})
		return
	}
	if len(req.Cells) == 0 || len(req.Cells) > s.cfg.MaxCells {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
			Message: fmt.Sprintf("cells must name 1..%d geometries, got %d", s.cfg.MaxCells, len(req.Cells))})
		return
	}
	cells := make([]sweep.Cell, len(req.Cells))
	for i, c := range req.Cells {
		if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 || c.Assoc < 1 {
			s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
				Message: fmt.Sprintf("cell %d: sets must be a positive power of two and assoc >= 1", i)})
			return
		}
		cells[i] = sweep.Cell{Sets: c.Sets, Assoc: c.Assoc}
	}
	if req.Sampling != nil {
		if err := req.Sampling.validate(); err != nil {
			s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()})
			return
		}
		if req.Sampling.Set > 1 {
			for i, c := range cells {
				if c.Sets < req.Sampling.Set {
					s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
						Message: fmt.Sprintf("sampling: cell %d has %d sets < set-sampling modulus %d (sampled lines would not cover whole sets)", i, c.Sets, req.Sampling.Set)})
					return
				}
			}
		}
	}

	timeout := s.timeoutFor(req.TimeoutMillis)
	n, _, reason := s.clampScale(req.Instructions, 0, timeout)
	req.Instructions, req.TimeoutMillis = n, 0 // normalize for the dedup key
	key := canonicalKey("sweep", req)
	weight := synth.TraceBytes(n, false)

	s.execute(w, r, "run:sweep", key, weight, timeout, func(ctx context.Context) runOutcome {
		start := time.Now()
		sp := sweep.SampledPass{LineSize: req.LineSize, Cells: cells, CountDistinct: req.CountDistinct, Ctx: ctx}
		if spec := req.Sampling; spec != nil {
			if spec.Set > 1 {
				sp.SetMod, sp.SetMatch = spec.Set, setMatch%spec.Set
			} else {
				sp.Window, sp.Period, sp.Warm = spec.Window, spec.Period, !spec.Skip
			}
		}
		src, why, release, err := s.acquire(ctx, prof, req.Seed, n, req.Sampling == nil)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		defer release()
		sm, err := sp.Sweep(src)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		degraded := reason != "" || why != ""
		resp := &SweepResponse{
			Workload:       prof.Name,
			Seed:           req.Seed,
			Instructions:   n,
			LineSize:       sm.LineSize,
			Accesses:       sm.Accesses,
			Distinct:       sm.Distinct,
			Cells:          make([]CellResult, len(sm.Cells)),
			Degraded:       degraded,
			DegradedReason: joinReasons(reason, why),
		}
		for i, c := range sm.Cells {
			resp.Cells[i] = CellResult{Sets: c.Sets, Assoc: c.Assoc, SizeBytes: c.Size(sm.LineSize), Misses: sm.Misses[i]}
		}
		if req.Sampling != nil {
			var ci float64
			for i, est := range sm.Estimates {
				resp.Cells[i].MPI, resp.Cells[i].CI95 = est.MPI, est.CI95
				ci += est.CI95
			}
			resp.Sampling = &SamplingInfo{
				Mode:                 req.Sampling.mode(),
				Coverage:             sm.Coverage(),
				CI95:                 ci / float64(len(sm.Cells)),
				MeasuredInstructions: sm.SampledInstructions,
			}
		}
		resp.ElapsedSeconds = time.Since(start).Seconds()
		return runOutcome{value: resp, degraded: degraded}
	})
}

// setMatch is the line-address congruence class an explicit set-sampling
// request simulates (reduced mod the request's modulus).
const setMatch = 3

// mode names the spec's sampling dimension for SamplingInfo.
func (sp SamplingSpec) mode() string {
	if sp.Set > 1 {
		return "set"
	}
	return "time"
}

// tierReasons says why an exact answer the memoized runs could not serve is
// degraded: it is still exact, but was read at disk bandwidth or
// regenerated instead of read from RAM.
var tierReasons = [...]string{
	synth.TierColumnar: "trace exceeds the store's hard RAM budget; answered exactly from the on-disk columnar trace",
	synth.TierSeek:     "trace exceeds the store's hard budget; streamed without materializing",
}

// acquire gets a request's trace from the store — whichever tier the hard
// budget admits — and counts the tier. It returns the degradation reason
// when exact is set and the runs did not serve it; a sampled answer is
// served as asked from any tier, so its tier never degrades it.
func (s *Server) acquire(ctx context.Context, prof synth.Profile, seed uint64, n int64, exact bool) (trace.RunReader, string, func(), error) {
	src, tier, release, err := s.store.Acquire(ctx, prof, seed, n)
	if err != nil {
		return nil, "", nil, err
	}
	switch tier {
	case synth.TierColumnar:
		s.mColumnar.Add(1)
	case synth.TierSeek:
		s.mSeek.Add(1)
	}
	if !exact {
		return src, "", release, nil
	}
	return src, tierReasons[tier], release, nil
}

// --- /v1/replay ---------------------------------------------------------

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	prof, err := synth.Lookup(req.Workload)
	if err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()})
		return
	}
	if err := checkScale(req.Instructions, req.TimeoutMillis); err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()})
		return
	}
	if len(req.Engines) == 0 || len(req.Engines) > s.cfg.MaxEngines {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
			Message: fmt.Sprintf("engines must name 1..%d configurations, got %d", s.cfg.MaxEngines, len(req.Engines))})
		return
	}
	// Validate the bank up front (400), but build fresh engines per
	// execution: engines are stateful.
	for i, spec := range req.Engines {
		if _, err := spec.build(); err != nil {
			s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
				Message: fmt.Sprintf("engine %d: %v", i, err)})
			return
		}
	}
	if req.Sampling != nil {
		if err := req.Sampling.validate(); err != nil {
			s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()})
			return
		}
		if req.Sampling.Set != 0 {
			s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request",
				Message: "sampling: set sampling is a sweep-request knob; replay banks mix line sizes and prefetchers, use time sampling (window, period)"})
			return
		}
	}

	timeout := s.timeoutFor(req.TimeoutMillis)
	n, _, reason := s.clampScale(req.Instructions, 0, timeout)
	req.Instructions, req.TimeoutMillis = n, 0
	key := canonicalKey("replay", req)
	weight := synth.TraceBytes(n, true)

	s.execute(w, r, "run:replay", key, weight, timeout, func(ctx context.Context) runOutcome {
		start := time.Now()
		engines := make([]fetch.Engine, len(req.Engines))
		for i, spec := range req.Engines {
			e, err := spec.build()
			if err != nil {
				return runOutcome{err: &ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: err.Error()}}
			}
			engines[i] = e
		}
		var plan replay.SamplePlan
		if spec := req.Sampling; spec != nil {
			plan = replay.SamplePlan{Window: spec.Window, Period: spec.Period, Warm: !spec.Skip}
		}
		src, why, release, err := s.acquire(ctx, prof, req.Seed, n, req.Sampling == nil)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		defer release()
		results, err := replay.Run(ctx, src, engines, plan)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		degraded := reason != "" || why != ""
		resp := &ReplayResponse{
			Workload:       prof.Name,
			Seed:           req.Seed,
			Instructions:   n,
			Results:        make([]EngineResult, len(results)),
			Degraded:       degraded,
			DegradedReason: joinReasons(reason, why),
		}
		for i, res := range results {
			m := res.Measured
			resp.Results[i] = EngineResult{
				Instructions: m.Instructions, Misses: m.Misses, BufferHits: m.BufferHits,
				StallCycles: m.StallCycles, CPI: m.CPIinstr(), MPI: m.MPI(),
			}
		}
		if req.Sampling != nil {
			var ci float64
			for i, res := range results {
				resp.Results[i].MPI, resp.Results[i].CI95 = res.Estimate.MPI, res.Estimate.CI95
				ci += res.Estimate.CI95
			}
			// Coverage and the measured instruction count are properties of
			// the shared sample schedule, identical across the bank.
			est := results[0].Estimate
			resp.Sampling = &SamplingInfo{
				Mode:                 "time",
				Coverage:             est.Coverage,
				CI95:                 ci / float64(len(results)),
				MeasuredInstructions: est.SampledInstructions,
			}
		}
		resp.ElapsedSeconds = time.Since(start).Seconds()
		return runOutcome{value: resp, degraded: degraded}
	})
}

// --- /v1/exhibit --------------------------------------------------------

func (s *Server) handleExhibit(w http.ResponseWriter, r *http.Request) {
	req := ExhibitRequest{Name: r.PathValue("name")}
	if !ibsim.IsExhibit(req.Name) {
		s.writeError(w, ErrorDetail{Status: http.StatusNotFound, Kind: "not-found",
			Message: fmt.Sprintf("unknown exhibit %q", req.Name)})
		return
	}
	q := r.URL.Query()
	var err error
	if req.Instructions, err = queryInt(q.Get("n")); err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: "n: " + err.Error()})
		return
	}
	var trials64 int64
	if trials64, err = queryInt(q.Get("trials")); err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: "trials: " + err.Error()})
		return
	}
	req.Trials = int(trials64)
	var seed int64
	if seed, err = queryInt(q.Get("seed")); err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: "seed: " + err.Error()})
		return
	}
	req.Seed = uint64(seed)
	req.Chart = q.Get("chart") == "1" || q.Get("chart") == "true"
	if req.TimeoutMillis, err = queryInt(q.Get("timeout_ms")); err != nil {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: "timeout_ms: " + err.Error()})
		return
	}

	timeout := s.timeoutFor(req.TimeoutMillis)
	n, trials, reason := s.clampScale(req.Instructions, req.Trials, timeout)
	req.Instructions, req.Trials, req.TimeoutMillis = n, trials, 0
	key := canonicalKey("exhibit", req)
	weight := synth.TraceBytes(n, true)

	s.execute(w, r, "run:exhibit", key, weight, timeout, func(ctx context.Context) runOutcome {
		start := time.Now()
		opt := ibsim.Options{Instructions: n, Trials: trials, Seed: req.Seed, Context: ctx}
		text, err := ibsim.RenderExhibit(req.Name, opt, req.Chart)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		degraded := reason != ""
		return runOutcome{value: &ExhibitResponse{
			Name:           req.Name,
			Instructions:   n,
			Trials:         trials,
			Seed:           req.Seed,
			Text:           text,
			Degraded:       degraded,
			DegradedReason: reason,
			ElapsedSeconds: time.Since(start).Seconds(),
		}, degraded: degraded}
	})
}

// queryInt parses an optional non-negative decimal integer query parameter;
// absent is 0. The whole value must parse: "1e6", "12abc", "0x10" and "-5"
// are errors, never a prefix or a silent default.
func queryInt(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("must be a non-negative decimal integer, got %q", v)
	}
	return n, nil
}

// checkScale rejects negative scale fields of a JSON request body. Zero
// means the server default; a negative value has no meaning and must not
// run silently at the default either.
func checkScale(instructions, timeoutMillis int64) error {
	if instructions < 0 {
		return fmt.Errorf("instructions must be non-negative, got %d", instructions)
	}
	if timeoutMillis < 0 {
		return fmt.Errorf("timeout_ms must be non-negative, got %d", timeoutMillis)
	}
	return nil
}

// clampScale applies the degradation policy to a request's scale knobs and
// returns the effective instruction budget, trial count, and — when the
// request was reduced — why. Policy: scale beyond the server maxima is
// clamped; a deadline shorter than DegradeWindow drops the request to
// reduced fidelity (DegradeInstructions, 1 trial) so it can answer inside
// its budget instead of timing out.
func (s *Server) clampScale(n int64, trials int, timeout time.Duration) (int64, int, string) {
	var reasons []string
	if n <= 0 {
		n = 2_000_000
	}
	if n > s.cfg.MaxInstructions {
		n = s.cfg.MaxInstructions
		reasons = append(reasons, fmt.Sprintf("instructions clamped to server maximum %d", n))
	}
	if trials > s.cfg.MaxTrials {
		trials = s.cfg.MaxTrials
		reasons = append(reasons, fmt.Sprintf("trials clamped to server maximum %d", trials))
	}
	if s.cfg.DegradeWindow > 0 && timeout < s.cfg.DegradeWindow {
		if n > s.cfg.DegradeInstructions {
			n = s.cfg.DegradeInstructions
		}
		if trials > 1 {
			trials = 1
		}
		reasons = append(reasons, fmt.Sprintf("deadline %v is inside the degrade window %v; reduced fidelity", timeout, s.cfg.DegradeWindow))
	}
	return n, trials, joinReasons(reasons...)
}

// joinReasons concatenates non-empty degradation reasons.
func joinReasons(reasons ...string) string {
	out := ""
	for _, r := range reasons {
		if r == "" {
			continue
		}
		if out != "" {
			out += "; "
		}
		out += r
	}
	return out
}
