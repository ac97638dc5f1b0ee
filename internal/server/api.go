package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
)

// The wire types of the v1 API. All requests are JSON; all responses carry an
// explicit Degraded marker so a reduced-fidelity answer can never be
// mistaken for a full one.

// CellSpec is one cache geometry of a sweep grid.
type CellSpec struct {
	// Sets is the number of sets; a power of two.
	Sets int `json:"sets"`
	// Assoc is the set associativity (>= 1).
	Assoc int `json:"assoc"`
}

// SamplingSpec asks for sampled (reduced-fidelity, bounded-error) execution
// instead of an exact simulation. Exactly one dimension must be chosen:
//
//   - Set: set sampling — only the cache sets whose index is congruent to a
//     fixed class mod Set are simulated (exact within the subset, ~Set times
//     less work). Sweep requests only; Set must not exceed the grid's
//     smallest set count.
//   - Window/Period: time sampling — the first Window of every Period
//     instructions are measured. Valid for sweeps and replays. Skip skips
//     the unmeasured spans entirely instead of warming through them: the
//     fastest mode, but every window starts from stale state.
//
// Sampled responses carry a SamplingInfo block and per-cell / per-engine
// MPI estimates with 95% confidence intervals. Measured bias of the time
// modes (mean relative MPI error, and how many 95% intervals cover the
// exact MPI) on the 8 IBS Mach workloads at 4M instructions, window 16,384,
// period 262,144, at commit 146dff3:
//
//   - sweeps of the 13-cell serve grid, skip: +20.9%, 60/104 cells, and
//     +93% at 256-KB direct-mapped, a cache still stale after the gap;
//   - the same sweeps, warm: +9.7%, 98/104;
//   - replays of the 6-engine serve bank: skip +4.7% (38/48), warm +3.9%
//     (42/48).
type SamplingSpec struct {
	Set    int   `json:"set,omitempty"`
	Window int64 `json:"window,omitempty"`
	Period int64 `json:"period,omitempty"`
	Skip   bool  `json:"skip,omitempty"`
}

// timeMode reports whether the spec uses time sampling.
func (sp SamplingSpec) timeMode() bool { return sp.Window != 0 || sp.Period != 0 }

// validate checks the API's own rules: exactly one dimension, a set count
// that is a power of two above 1, and skip only with time sampling.
func (sp SamplingSpec) validate() error {
	setMode := sp.Set != 0
	switch {
	case setMode && sp.timeMode():
		return fmt.Errorf("sampling: set and window/period are mutually exclusive")
	case !setMode && !sp.timeMode():
		return fmt.Errorf("sampling: choose set sampling (set) or time sampling (window, period)")
	case setMode && (sp.Set <= 1 || sp.Set&(sp.Set-1) != 0):
		return fmt.Errorf("sampling: set %d must be a power of two > 1", sp.Set)
	case setMode && sp.Skip:
		return fmt.Errorf("sampling: skip applies to time sampling only")
	}
	return nil
}

// SamplingInfo reports a sampled answer's statistics: what fraction of the
// work was measured and how wide the intervals came out.
type SamplingInfo struct {
	// Mode is "set" or "time".
	Mode string `json:"mode"`
	// Coverage is the measured fraction of the full trace (or set
	// population).
	Coverage float64 `json:"coverage"`
	// CI95 is the mean per-cell (or per-engine) 95% confidence half-width
	// on MPI, in misses-per-instruction units.
	CI95 float64 `json:"ci95"`
	// MeasuredInstructions is the instruction count actually simulated and
	// counted.
	MeasuredInstructions int64 `json:"measured_instructions"`
}

// SweepRequest asks for the exact per-cell LRU miss counts of a capacity ×
// associativity grid over one workload's instruction trace — one
// single-pass sweep (internal/sweep).
type SweepRequest struct {
	// Workload names a registered workload model (ibsim.Workloads()).
	Workload string `json:"workload"`
	// Seed offsets the workload's generation seed; 0 keeps the calibrated
	// profile seed.
	Seed uint64 `json:"seed,omitempty"`
	// Instructions is the trace length (default 2M, clamped to the
	// server's maximum).
	Instructions int64 `json:"instructions,omitempty"`
	// LineSize is the grid's shared line size in bytes; a power of two.
	LineSize int `json:"line_size"`
	// Cells is the capacity × associativity grid.
	Cells []CellSpec `json:"cells"`
	// CountDistinct additionally counts distinct lines (compulsory
	// misses).
	CountDistinct bool `json:"count_distinct,omitempty"`
	// Sampling, when non-nil, asks for sampled execution with confidence
	// intervals instead of an exact sweep.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// TimeoutMillis bounds the request's wall-clock time; 0 uses the
	// server default.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// CellResult is one grid cell's outcome.
type CellResult struct {
	Sets      int   `json:"sets"`
	Assoc     int   `json:"assoc"`
	SizeBytes int   `json:"size_bytes"`
	Misses    int64 `json:"misses"`
	// MPI and CI95 are the extrapolated misses-per-instruction estimate and
	// its 95% half-width; present on sampled responses only (on exact
	// responses Misses/Accesses is the answer).
	MPI  float64 `json:"mpi,omitempty"`
	CI95 float64 `json:"ci95,omitempty"`
}

// SweepResponse is the miss matrix of one sweep.
type SweepResponse struct {
	Workload     string       `json:"workload"`
	Seed         uint64       `json:"seed"`
	Instructions int64        `json:"instructions"`
	LineSize     int          `json:"line_size"`
	Accesses     int64        `json:"accesses"`
	Distinct     int64        `json:"distinct,omitempty"`
	Cells        []CellResult `json:"cells"`
	// Degraded marks an answer the server reduced or moved off RAM (clamped
	// scale, or an exact pass over the on-disk columnar trace or streaming
	// regeneration because the runs exceed the store's budget);
	// DegradedReason says why.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Sampling is present when the request asked for sampled simulation;
	// the server never samples on its own.
	Sampling       *SamplingInfo `json:"sampling,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
}

// LinkSpec selects a memory link: either a named baseline or explicit
// latency/bandwidth parameters.
type LinkSpec struct {
	// Name picks a baseline: "economy" (30 cycles, 4 B/cycle),
	// "highperf" (12 cycles, 8 B/cycle), or "l1l2" (6 cycles, 16
	// B/cycle). Empty uses the explicit parameters.
	Name string `json:"name,omitempty"`
	// Latency is the cycles until the first chunk arrives.
	Latency int `json:"latency,omitempty"`
	// BytesPerCycle is the transfer bandwidth.
	BytesPerCycle int `json:"bytes_per_cycle,omitempty"`
}

// transfer resolves the spec to a memsys.Transfer.
func (l LinkSpec) transfer() (memsys.Transfer, error) {
	switch strings.ToLower(l.Name) {
	case "economy":
		return memsys.Economy().Memory, nil
	case "highperf", "high-performance":
		return memsys.HighPerformance().Memory, nil
	case "l1l2":
		return memsys.L1L2Link(), nil
	case "":
		t := memsys.Transfer{Latency: l.Latency, BytesPerCycle: l.BytesPerCycle}
		if err := t.Validate(); err != nil {
			return memsys.Transfer{}, err
		}
		return t, nil
	default:
		return memsys.Transfer{}, fmt.Errorf("unknown link name %q (have economy, highperf, l1l2)", l.Name)
	}
}

// EngineSpec parameterizes one fetch engine of a replay bank.
type EngineSpec struct {
	// Kind selects the engine: "blocking" (default), "bypass", or
	// "stream".
	Kind string `json:"kind,omitempty"`
	// Size, LineSize, Assoc describe the L1 I-cache geometry.
	Size     int `json:"size"`
	LineSize int `json:"line_size"`
	Assoc    int `json:"assoc"`
	// Link is the L1-to-next-level transfer.
	Link LinkSpec `json:"link"`
	// PrefetchLines enables sequential prefetch-on-miss (blocking and
	// bypass engines); at most the L1's line count (size / line_size).
	PrefetchLines int `json:"prefetch_lines,omitempty"`
	// Depth is the stream-buffer depth (stream engines; >= 1); at most the
	// L1's line count.
	Depth int `json:"depth,omitempty"`
}

// build constructs the configured engine. Admission weighs a request by its
// trace alone, so build bounds the two knobs whose per-miss cost grows with
// their value: prefetch lines and stream depth beyond the L1's line count
// buy nothing a smaller value would not, and a large enough prefetch count
// overflows the fill-time arithmetic.
func (e EngineSpec) build() (fetch.Engine, error) {
	cfg := cache.Config{Size: e.Size, LineSize: e.LineSize, Assoc: e.Assoc}
	link, err := e.Link.transfer()
	if err != nil {
		return nil, err
	}
	if e.LineSize > 0 {
		lines := e.Size / e.LineSize
		if e.PrefetchLines > lines {
			return nil, fmt.Errorf("prefetch_lines %d exceeds the L1's %d lines", e.PrefetchLines, lines)
		}
		if e.Depth > lines {
			return nil, fmt.Errorf("depth %d exceeds the L1's %d lines", e.Depth, lines)
		}
	}
	switch strings.ToLower(e.Kind) {
	case "", "blocking":
		return fetch.NewBlocking(cfg, link, e.PrefetchLines)
	case "bypass":
		return fetch.NewBypass(cfg, link, e.PrefetchLines)
	case "stream":
		return fetch.NewStream(cfg, link, e.Depth)
	default:
		return nil, fmt.Errorf("unknown engine kind %q (have blocking, bypass, stream)", e.Kind)
	}
}

// ReplayRequest asks for one workload's trace to be fanned out through a
// bank of fetch engines (internal/replay) and each engine's Result.
type ReplayRequest struct {
	Workload     string       `json:"workload"`
	Seed         uint64       `json:"seed,omitempty"`
	Instructions int64        `json:"instructions,omitempty"`
	Engines      []EngineSpec `json:"engines"`
	// Sampling, when non-nil, asks for sampled execution. Replay banks mix
	// line sizes and prefetching engines, so only time sampling is valid
	// here; set sampling is a sweep-request knob.
	Sampling      *SamplingSpec `json:"sampling,omitempty"`
	TimeoutMillis int64         `json:"timeout_ms,omitempty"`
}

// EngineResult is one engine's accumulated counters, in bank order.
type EngineResult struct {
	Instructions int64   `json:"instructions"`
	Misses       int64   `json:"misses"`
	BufferHits   int64   `json:"buffer_hits,omitempty"`
	StallCycles  int64   `json:"stall_cycles"`
	CPI          float64 `json:"cpi"`
	MPI          float64 `json:"mpi"`
	// CI95 is the 95% half-width on MPI; present on sampled responses only
	// (the counters above then cover the measured windows, extrapolated by
	// MPI).
	CI95 float64 `json:"ci95,omitempty"`
}

// ReplayResponse is the bank's results in engine order.
type ReplayResponse struct {
	Workload       string         `json:"workload"`
	Seed           uint64         `json:"seed"`
	Instructions   int64          `json:"instructions"`
	Results        []EngineResult `json:"results"`
	Degraded       bool           `json:"degraded"`
	DegradedReason string         `json:"degraded_reason,omitempty"`
	// Sampling is present when the request asked for sampled simulation;
	// the server never samples on its own.
	Sampling       *SamplingInfo `json:"sampling,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
}

// ExhibitRequest parameterizes GET /v1/exhibit/{name}; the fields travel as
// query parameters (n, seed, trials, chart, timeout_ms).
type ExhibitRequest struct {
	Name          string `json:"name"`
	Instructions  int64  `json:"instructions,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	Trials        int    `json:"trials,omitempty"`
	Chart         bool   `json:"chart,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
}

// ExhibitResponse carries one rendered exhibit.
type ExhibitResponse struct {
	Name           string  `json:"name"`
	Instructions   int64   `json:"instructions"`
	Trials         int     `json:"trials,omitempty"`
	Seed           uint64  `json:"seed"`
	Text           string  `json:"text"`
	Degraded       bool    `json:"degraded"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// result is a 200 body. The run path fills in the fields every body shares.
type result interface {
	finish(reason string, elapsed time.Duration)
}

func (r *SweepResponse) finish(reason string, elapsed time.Duration) {
	r.Degraded, r.DegradedReason, r.ElapsedSeconds = reason != "", reason, elapsed.Seconds()
}

func (r *ReplayResponse) finish(reason string, elapsed time.Duration) {
	r.Degraded, r.DegradedReason, r.ElapsedSeconds = reason != "", reason, elapsed.Seconds()
}

func (r *ExhibitResponse) finish(reason string, elapsed time.Duration) {
	r.Degraded, r.DegradedReason, r.ElapsedSeconds = reason != "", reason, elapsed.Seconds()
}

// ErrorBody is the structured error envelope every non-2xx v1 response
// carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail classifies a failure. Kind is stable and machine-matchable:
// "bad-request", "not-found", "queue-full", "queue-timeout", "deadline",
// "worker-panic", "panic", "over-budget", "internal", "draining".
type ErrorDetail struct {
	Status            int    `json:"status"`
	Kind              string `json:"kind"`
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// canonicalKey hashes an endpoint plus its normalized (post-clamp) request
// value into the singleflight key: two requests that would do identical
// work share one execution, whatever their JSON field order or transport
// differences.
func canonicalKey(endpoint string, normalized any) string {
	data, err := json.Marshal(normalized)
	if err != nil {
		// Normalized requests are plain structs; marshal cannot fail. Fall
		// back to a never-matching key rather than conflating requests.
		return fmt.Sprintf("%s:unhashable:%p", endpoint, &data)
	}
	sum := sha256.Sum256(append([]byte(endpoint+"\x00"), data...))
	return hex.EncodeToString(sum[:])
}
