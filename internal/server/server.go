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
//     clamped; when the trace store cannot materialize the full trace the
//     sweep/replay paths first engage sampled simulation over the
//     run-compacted trace (reduced fidelity with explicit 95% confidence
//     intervals — the "sampling" tier, also available on request via the
//     sampling knob), and only when even the compacted trace is over budget
//     fall back to streaming regeneration in O(1) memory; requests with
//     near deadlines run at reduced scale. Every such answer carries an
//     explicit "degraded": true marker.
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
	"runtime"
	"runtime/debug"
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
	// trace memory — requests over the budget degrade to streaming.
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
	mCanceled, mSampled, mColumnar, mSeek   expvar.Int
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
	s.vars.Set("sampling_tier_total", &s.mSampled)
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
		p := sweep.Pass{LineSize: req.LineSize, Cells: cells, CountDistinct: req.CountDistinct, Ctx: ctx}
		m, sm, mode, degraded, why, err := s.sweepMatrix(ctx, p, prof, req.Seed, n, req.Sampling)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		degraded = degraded || reason != ""
		resp := &SweepResponse{
			Workload:       prof.Name,
			Seed:           req.Seed,
			Instructions:   n,
			Degraded:       degraded,
			DegradedReason: joinReasons(reason, why),
		}
		if sm != nil {
			resp.LineSize = sm.LineSize
			resp.Accesses = sm.SampledInstructions
			resp.Distinct = sm.Distinct
			resp.Cells = make([]CellResult, len(sm.Cells))
			var ci float64
			for i, c := range sm.Cells {
				est := sm.Estimates[i]
				resp.Cells[i] = CellResult{Sets: c.Sets, Assoc: c.Assoc, SizeBytes: c.Size(sm.LineSize),
					Misses: sm.Misses[i], MPI: est.MPI, CI95: est.CI95}
				ci += est.CI95
			}
			resp.Sampling = &SamplingInfo{
				Mode:                 mode,
				Coverage:             sm.Coverage(),
				CI95:                 ci / float64(len(sm.Cells)),
				MeasuredInstructions: sm.SampledInstructions,
			}
		} else {
			resp.LineSize = m.LineSize
			resp.Accesses = m.Accesses
			resp.Distinct = m.Distinct
			resp.Cells = make([]CellResult, len(m.Cells))
			for i, c := range m.Cells {
				resp.Cells[i] = CellResult{Sets: c.Sets, Assoc: c.Assoc, SizeBytes: c.Size(m.LineSize), Misses: m.Misses[i]}
			}
		}
		resp.ElapsedSeconds = time.Since(start).Seconds()
		return runOutcome{value: resp, degraded: degraded}
	})
}

// The automatic sampling tier's policy knobs: 1/16 of the sets (halved until
// the grid's smallest cell can cover whole sets), or — when the grid cannot
// support set sampling at all — skip-mode time sampling at 1/16 coverage with
// Instructions/256 windows. Skip (not warm) because warm replay still walks
// the whole trace; only skipping buys the tier its speed.
const (
	autoSetMod    = 16
	autoSetMatch  = 3
	autoWindowDiv = 256
	autoPeriodMul = 16
	autoMinWindow = 64
)

// autoWindow sizes the automatic tier's measurement window.
func autoWindow(n int64) int64 {
	w := n / autoWindowDiv
	if w < autoMinWindow {
		w = autoMinWindow
	}
	return w
}

// autoSweepSpec picks the automatic sampling policy for a sweep grid.
func autoSweepSpec(cells []sweep.Cell, n int64) SamplingSpec {
	minSets := cells[0].Sets
	for _, c := range cells[1:] {
		if c.Sets < minSets {
			minSets = c.Sets
		}
	}
	mod := autoSetMod
	for mod > minSets {
		mod >>= 1
	}
	if mod > 1 {
		return SamplingSpec{Set: mod}
	}
	w := autoWindow(n)
	return SamplingSpec{Window: w, Period: autoPeriodMul * w, Skip: true}
}

// seekable reports whether the spec is skip-mode time sampling with a real
// gap between windows — the only shape the checkpoint-seek streaming tier
// can serve, since it never generates the skipped spans at all.
func (sp SamplingSpec) seekable() bool {
	return sp.Set <= 1 && sp.Skip && sp.Window > 0 && sp.Window < sp.Period
}

// mode names the spec's sampling dimension for SamplingInfo.
func (sp SamplingSpec) mode() string {
	if sp.Set > 1 {
		return "set"
	}
	return "time"
}

// sampledSweep runs one sampled pass over the run-compacted trace. The
// compacted trace is ~6x smaller than the ref trace, which is exactly why
// this is the mid-tier: requests whose refs are over the store budget
// usually still fit as runs. With spill set (explicit sampling requests),
// runs over budget fall back to iterating the on-disk columnar trace block
// by block — the sampling ask is still satisfied exactly as specified, just
// at disk bandwidth instead of RAM. The automatic ladder passes spill=false:
// when the runs are over budget it prefers the EXACT columnar tier over
// sampling from disk.
func (s *Server) sampledSweep(ctx context.Context, p sweep.Pass, prof synth.Profile, seed uint64, n int64, spec SamplingSpec, spill bool) (*sweep.SampledMatrix, error) {
	sp := sweep.SampledPass{LineSize: p.LineSize, Cells: p.Cells, CountDistinct: p.CountDistinct, Ctx: ctx}
	if spec.Set > 1 {
		sp.SetMod = spec.Set
		sp.SetMatch = autoSetMatch % spec.Set
	} else {
		sp.Window, sp.Period, sp.Warm = spec.Window, spec.Period, !spec.Skip
	}
	runs, release, err := s.store.RunsOnly(ctx, prof, seed, n)
	if err == nil {
		defer release()
		return sp.Run(runs)
	}
	if !spill || !errors.Is(err, synth.ErrOverBudget) {
		return nil, err
	}
	cf, release, err := s.store.Columnar(ctx, prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	s.mColumnar.Add(1)
	return sp.Sweep(trace.NewBlockReader(cf))
}

// sweepMatrix answers one sweep through the degradation ladder. A request
// carrying an explicit sampling spec runs sampled from the start (not
// degraded: reduced fidelity was the ask; the sampled pass itself falls
// back from RAM runs to the on-disk columnar trace). Otherwise: exact over
// the materialized trace; if the store refuses, the sampling tier
// (auto-policy sampled pass, explicit intervals, degraded); then the
// columnar-disk tier (an EXACT answer iterated block by block from the
// on-disk columnar trace at disk bandwidth); streaming regeneration only if
// even the columnar file is over budget.
func (s *Server) sweepMatrix(ctx context.Context, p sweep.Pass, prof synth.Profile, seed uint64, n int64, spec *SamplingSpec) (m *sweep.Matrix, sm *sweep.SampledMatrix, mode string, degraded bool, reason string, err error) {
	if spec != nil {
		sm, err = s.sampledSweep(ctx, p, prof, seed, n, *spec, true)
		if err == nil {
			return nil, sm, spec.mode(), false, "", nil
		}
		if !errors.Is(err, synth.ErrOverBudget) {
			return nil, nil, "", false, "", err
		}
		if spec.seekable() {
			// Skip-mode time sampling never looks at the skipped spans, so a
			// checkpointed seekable source can serve the EXACT sampling ask
			// in O(1) memory by jumping between measured windows.
			sm, err = s.seekSampledSweep(ctx, p, prof, seed, n, *spec)
			if err == nil {
				s.mSeek.Add(1)
				return nil, sm, spec.mode(), false, "", nil
			}
			if !errors.Is(err, synth.ErrOverBudget) {
				return nil, nil, "", false, "", err
			}
		}
		m, err = s.streamedSweep(ctx, p, prof, seed, n)
		return m, nil, "", true,
			"sampling requested but even the columnar trace exceeds the store's hard budget; streamed an exact answer instead", err
	}
	refs, release, err := s.store.InstrCtx(ctx, prof, seed, n)
	if err == nil {
		defer release()
		m, err = p.Run(refs)
		return m, nil, "", false, "", err
	}
	if !errors.Is(err, synth.ErrOverBudget) {
		return nil, nil, "", false, "", err
	}
	auto := autoSweepSpec(p.Cells, n)
	sm, err = s.sampledSweep(ctx, p, prof, seed, n, auto, false)
	if err == nil {
		s.mSampled.Add(1)
		return nil, sm, auto.mode(), true,
			"trace exceeds the store's hard budget; answered by sampled simulation over the run-compacted trace (95% confidence intervals attached)", nil
	}
	if !errors.Is(err, synth.ErrOverBudget) {
		return nil, nil, "", false, "", err
	}
	m, err = s.columnarSweep(ctx, p, prof, seed, n)
	if err == nil {
		return m, nil, "", true,
			"trace exceeds the store's hard RAM budget; answered exactly from the on-disk columnar trace", nil
	}
	if !errors.Is(err, synth.ErrOverBudget) {
		return nil, nil, "", false, "", err
	}
	m, err = s.streamedSweep(ctx, p, prof, seed, n)
	return m, nil, "", true, "trace exceeds the store's hard budget; streamed without materializing", err
}

// columnarSweep is the columnar-disk rung: an exact pass iterated block by
// block over the store's on-disk columnar trace in O(block) memory.
func (s *Server) columnarSweep(ctx context.Context, p sweep.Pass, prof synth.Profile, seed uint64, n int64) (*sweep.Matrix, error) {
	cf, release, err := s.store.Columnar(ctx, prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	s.mColumnar.Add(1)
	return p.RunBlocks(cf)
}

// seekSampledSweep is the seek-streaming rung for explicit skip-mode time
// sampling: when neither the runs nor the columnar file fit the budget, the
// pass runs over a checkpointed seekable source that jumps straight between
// measured windows — the sampling ask is still honored exactly as
// specified, generating only O(sampled refs) in O(1) memory.
func (s *Server) seekSampledSweep(ctx context.Context, p sweep.Pass, prof synth.Profile, seed uint64, n int64, spec SamplingSpec) (*sweep.SampledMatrix, error) {
	sp := sweep.SampledPass{LineSize: p.LineSize, Cells: p.Cells, CountDistinct: p.CountDistinct, Ctx: ctx,
		Window: spec.Window, Period: spec.Period}
	src, release, err := s.store.SeekSource(prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	return sp.RunSeek(src)
}

// streamedSweep is the last rung: an exact pass over streaming regeneration
// from the store's checkpointed seekable source, in O(1) memory.
func (s *Server) streamedSweep(ctx context.Context, p sweep.Pass, prof synth.Profile, seed uint64, n int64) (*sweep.Matrix, error) {
	src, release, err := s.store.SeekSource(prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	sm, err := sweep.SampledPass{LineSize: p.LineSize, Cells: p.Cells, CountDistinct: p.CountDistinct, Ctx: ctx}.
		Sweep(trace.NewSeekReader(src))
	if err != nil {
		return nil, err
	}
	return &sm.Matrix, nil
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
		results, sampled, degraded, why, err := s.replayBank(ctx, prof, req.Seed, n, engines, req.Sampling)
		if err != nil {
			return runOutcome{err: s.errorFor(err)}
		}
		degraded = degraded || reason != ""
		resp := &ReplayResponse{
			Workload:       prof.Name,
			Seed:           req.Seed,
			Instructions:   n,
			Degraded:       degraded,
			DegradedReason: joinReasons(reason, why),
		}
		if sampled != nil {
			resp.Results = make([]EngineResult, len(sampled))
			var ci float64
			for i, sr := range sampled {
				resp.Results[i] = EngineResult{
					Instructions: sr.Measured.Instructions, Misses: sr.Measured.Misses,
					BufferHits: sr.Measured.BufferHits, StallCycles: sr.Measured.StallCycles,
					CPI: sr.Measured.CPIinstr(), MPI: sr.Estimate.MPI, CI95: sr.Estimate.CI95,
				}
				ci += sr.Estimate.CI95
			}
			// Coverage and the measured instruction count are properties of
			// the shared sample schedule, identical across the bank.
			est := sampled[0].Estimate
			resp.Sampling = &SamplingInfo{
				Mode:                 "time",
				Coverage:             est.Coverage,
				CI95:                 ci / float64(len(sampled)),
				MeasuredInstructions: est.SampledInstructions,
			}
		} else {
			resp.Results = make([]EngineResult, len(results))
			for i, res := range results {
				resp.Results[i] = EngineResult{
					Instructions: res.Instructions, Misses: res.Misses, BufferHits: res.BufferHits,
					StallCycles: res.StallCycles, CPI: res.CPIinstr(), MPI: res.MPI(),
				}
			}
		}
		resp.ElapsedSeconds = time.Since(start).Seconds()
		return runOutcome{value: resp, degraded: degraded}
	})
}

// sampledReplay fans a time-sampled trace through the bank over the
// run-compacted trace. With spill set (explicit sampling requests), runs
// over budget fall back to block-granular sampled replay over the on-disk
// columnar trace — skip-mode plans then seek straight to each measured
// window through the block index instead of decoding the gaps.
func (s *Server) sampledReplay(ctx context.Context, prof synth.Profile, seed uint64, n int64, engines []fetch.Engine, spec SamplingSpec, spill bool) ([]replay.SampledResult, error) {
	plan := replay.SamplePlan{Window: spec.Window, Period: spec.Period, Warm: !spec.Skip}
	runs, release, err := s.store.RunsOnly(ctx, prof, seed, n)
	if err == nil {
		defer release()
		return replay.Sampled(ctx, runs, engines, plan)
	}
	if !spill || !errors.Is(err, synth.ErrOverBudget) {
		return nil, err
	}
	cf, release, err := s.store.Columnar(ctx, prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	s.mColumnar.Add(1)
	return replay.Run(ctx, trace.NewBlockReader(cf), engines, plan)
}

// replayBank fans the trace out through the engines, down the same
// degradation ladder as sweepMatrix: an explicit sampling spec runs sampled
// from the start (not degraded; the sampled replay itself falls back from
// RAM runs to the on-disk columnar trace); otherwise exact over the
// memoized run-compacted trace, then the automatic sampling tier (skip-mode
// time sampling, degraded, intervals attached), then the columnar-disk tier
// (EXACT block-granular fan-out from the on-disk columnar trace), and
// finally one streaming regeneration for the whole bank.
func (s *Server) replayBank(ctx context.Context, prof synth.Profile, seed uint64, n int64, engines []fetch.Engine, spec *SamplingSpec) (results []fetch.Result, sampled []replay.SampledResult, degraded bool, reason string, err error) {
	if spec != nil {
		sampled, err = s.sampledReplay(ctx, prof, seed, n, engines, *spec, true)
		if err == nil {
			return nil, sampled, false, "", nil
		}
		if !errors.Is(err, synth.ErrOverBudget) {
			return nil, nil, false, "", err
		}
		if spec.seekable() {
			// Over-budget failures happen before any engine is fed, so the
			// bank is still fresh for the seek-streaming rung.
			sampled, err = s.seekSampledReplay(ctx, prof, seed, n, engines, *spec)
			if err == nil {
				s.mSeek.Add(1)
				return nil, sampled, false, "", nil
			}
			if !errors.Is(err, synth.ErrOverBudget) {
				return nil, nil, false, "", err
			}
		}
		results, err = s.streamedReplay(ctx, prof, seed, n, engines)
		return results, nil, true,
			"sampling requested but even the columnar trace exceeds the store's hard budget; replayed exactly from streaming regeneration", err
	}
	_, runs, release, err := s.store.InstrRuns(ctx, prof, seed, n)
	if err == nil {
		defer release()
		results, err = replay.Replay(ctx, runs, engines)
		return results, nil, false, "", err
	}
	if !errors.Is(err, synth.ErrOverBudget) {
		return nil, nil, false, "", err
	}
	w := autoWindow(n)
	auto := SamplingSpec{Window: w, Period: autoPeriodMul * w, Skip: true}
	sampled, err = s.sampledReplay(ctx, prof, seed, n, engines, auto, false)
	if err == nil {
		s.mSampled.Add(1)
		return nil, sampled, true,
			"trace exceeds the store's hard budget; answered by time-sampled replay over the run-compacted trace (95% confidence intervals attached)", nil
	}
	if !errors.Is(err, synth.ErrOverBudget) {
		return nil, nil, false, "", err
	}
	results, err = s.columnarReplay(ctx, prof, seed, n, engines)
	if err == nil {
		return results, nil, true,
			"trace exceeds the store's hard RAM budget; answered exactly from the on-disk columnar trace", nil
	}
	if !errors.Is(err, synth.ErrOverBudget) {
		return nil, nil, false, "", err
	}
	results, err = s.streamedReplay(ctx, prof, seed, n, engines)
	return results, nil, true, "trace exceeds the store's hard budget; replayed from streaming regeneration", err
}

// seekSampledReplay is the replay path's seek-streaming rung for explicit
// skip-mode time sampling: a checkpointed seekable source feeds the bank
// only the measured windows, honoring the sampling ask exactly in O(1)
// memory when neither runs nor the columnar file fit the budget.
func (s *Server) seekSampledReplay(ctx context.Context, prof synth.Profile, seed uint64, n int64, engines []fetch.Engine, spec SamplingSpec) ([]replay.SampledResult, error) {
	src, release, err := s.store.SeekSource(prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	return replay.SampledSeek(ctx, src, engines, replay.SamplePlan{Window: spec.Window, Period: spec.Period})
}

// columnarReplay is the replay path's columnar-disk rung: an exact
// block-granular fan-out over the store's on-disk columnar trace,
// parallelized across the bank (replay.BlocksParallel partitions the
// simulated engines over the CPUs; results stay bit-identical to the serial
// path, pinned by the differential/blocks-parallel check).
func (s *Server) columnarReplay(ctx context.Context, prof synth.Profile, seed uint64, n int64, engines []fetch.Engine) ([]fetch.Result, error) {
	cf, release, err := s.store.Columnar(ctx, prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	s.mColumnar.Add(1)
	return replay.BlocksParallel(ctx, cf, engines, runtime.GOMAXPROCS(0))
}

// streamedReplay is the replay path's last rung: one exact streaming
// regeneration for the whole bank, from the store's checkpointed seekable
// source, in O(1) memory.
func (s *Server) streamedReplay(ctx context.Context, prof synth.Profile, seed uint64, n int64, engines []fetch.Engine) ([]fetch.Result, error) {
	src, release, err := s.store.SeekSource(prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer release()
	sampled, err := replay.Run(ctx, trace.NewSeekReader(src), engines, replay.SamplePlan{})
	if err != nil {
		return nil, err
	}
	results := make([]fetch.Result, len(sampled))
	for i, r := range sampled {
		results[i] = r.Measured
	}
	return results, nil
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
	if seed, err = queryInt(q.Get("seed")); err != nil || seed < 0 {
		s.writeError(w, ErrorDetail{Status: http.StatusBadRequest, Kind: "bad-request", Message: "seed: must be a non-negative integer"})
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

// queryInt parses an optional non-negative integer query parameter.
func queryInt(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	var n int64
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return 0, fmt.Errorf("must be an integer, got %q", v)
	}
	return n, nil
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
