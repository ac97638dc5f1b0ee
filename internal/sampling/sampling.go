// Package sampling implements trace-sampling methodology studies.
//
// The paper's traces were captured by stalling the DECstation whenever the
// logic analyzer's buffer filled, and the authors validated the resulting
// distortion at "within a 5% margin of error" against a non-invasive
// hardware monitor; their Tapeworm II trap-driven simulator likewise
// observed execution in bounded windows. This package quantifies the two
// classic sampling regimes on our workloads:
//
//   - Warm sampling ("functional warming"): the cache state is maintained
//     continuously but statistics are recorded only inside periodic
//     measurement windows. Unbiased — it converges to the full-trace miss
//     ratio as windows accumulate.
//   - Cold sampling: the cache is flushed before each window (what a
//     trap-driven tool that loses state between observation intervals
//     sees). Biased upward by cold-start misses; the bias shrinks as the
//     window grows.
//
// Schedule is the time-window schedule every sampled simulator walks: the
// sweep kernel, the replay fan-out (replay.Run) and Run read their windows
// (and, warm, their gaps) through Schedule.Walk.
package sampling

import (
	"fmt"
	"math"

	"ibsim/internal/cache"
	"ibsim/internal/trace"
)

// Mode selects the sampling regime.
type Mode uint8

const (
	// Warm maintains cache state between measurement windows.
	Warm Mode = iota
	// Cold flushes the cache before each measurement window.
	Cold
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Warm:
		return "warm"
	case Cold:
		return "cold"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Schedule is a time-sampling schedule: out of every Period instructions
// the first Window are measured, so window w covers instructions
// [w·Period, w·Period+Window), clipped to the trace end. Window == Period
// measures everything. It is the one schedule the sweep, replay.Run and Run
// walk.
type Schedule struct {
	Window int64
	Period int64
}

// Validate checks that the schedule measures a positive window no longer
// than its period.
func (s Schedule) Validate() error {
	if s.Window <= 0 {
		return fmt.Errorf("sampling: window %d must be positive", s.Window)
	}
	if s.Period < s.Window {
		return fmt.Errorf("sampling: period %d < window %d", s.Period, s.Window)
	}
	return nil
}

// Windowed reports whether the schedule leaves gaps between its windows.
// A schedule without gaps is the caller's one exhaustive read, unless the
// caller must act at every window start (cold mode resets each period).
func (s Schedule) Windowed() bool { return s.Window < s.Period }

// Visit receives one walk of a schedule.
type Visit struct {
	// Open, when non-nil, runs as each window opens: where a caller
	// snapshots its counters, or resets its state in cold mode.
	Open func()
	// Measure reads the window's runs.
	Measure func([]trace.Run) error
	// Close, when non-nil, runs once the window has been read.
	Close func()
	// Warm, when non-nil, reads the gap after each window; nil leaves the
	// gaps unread.
	Warm func([]trace.Run) error
}

// Walk reads src under the schedule, window by window in increasing
// position, and returns the trace length. A read error stops the walk and
// is returned unchanged.
func (s Schedule) Walk(src trace.RunReader, v Visit) (int64, error) {
	total := src.Total()
	for start := int64(0); start < total; start += s.Period {
		if v.Open != nil {
			v.Open()
		}
		if err := src.ReadRuns(start, s.Window, v.Measure); err != nil {
			return 0, err
		}
		if v.Close != nil {
			v.Close()
		}
		if v.Warm != nil {
			if err := src.ReadRuns(start+s.Window, s.Period-s.Window, v.Warm); err != nil {
				return 0, err
			}
		}
		if start > total-s.Period {
			break // the next window start would overflow int64
		}
	}
	return total, nil
}

// Plan describes a sampling schedule and how the cache spends the gaps.
type Plan struct {
	// Window is the measured instructions per period.
	Window int64
	// Period is the schedule length; Period == Window measures everything.
	Period int64
	// Mode selects warm or cold sampling.
	Mode Mode
}

// Validate checks the plan.
func (p Plan) Validate() error { return p.schedule().Validate() }

// schedule returns the plan's time windows.
func (p Plan) schedule() Schedule { return Schedule{Window: p.Window, Period: p.Period} }

// Result reports a sampled miss-ratio estimate.
type Result struct {
	// SampledInstructions is the number of instruction fetches measured.
	SampledInstructions int64
	// SampledMisses is the misses recorded inside windows.
	SampledMisses int64
	// TotalInstructions is the full stream length (measured + skipped).
	TotalInstructions int64
}

// MPI returns the sampled miss-per-instruction estimate.
func (r Result) MPI() float64 {
	if r.SampledInstructions == 0 {
		return 0
	}
	return float64(r.SampledMisses) / float64(r.SampledInstructions)
}

// Coverage returns the fraction of the stream that was measured.
func (r Result) Coverage() float64 {
	if r.TotalInstructions == 0 {
		return 0
	}
	return float64(r.SampledInstructions) / float64(r.TotalInstructions)
}

// Run replays src's instruction fetches through a cache under the sampling
// plan and returns the sampled estimate. Warm mode reads the gaps into the
// cache; cold mode resets the cache as each window opens, so its gaps are
// never read. A warm plan without gaps is one read of the whole trace.
func Run(cfg cache.Config, src trace.RunReader, plan Plan) (Result, error) {
	sched := plan.schedule()
	if err := sched.Validate(); err != nil {
		return Result{}, err
	}
	c, err := cache.New(cfg)
	if err != nil {
		return Result{}, err
	}
	var res Result
	access := func(runs []trace.Run) error {
		for _, r := range runs {
			c.AccessRun(r.Start, r.Len, trace.InstrBytes)
		}
		return nil
	}
	measure := func(runs []trace.Run) error {
		for _, r := range runs {
			c.AccessRun(r.Start, r.Len, trace.InstrBytes)
			res.SampledInstructions += r.Len
		}
		return nil
	}
	cold := plan.Mode == Cold
	if !cold && !sched.Windowed() {
		err := src.ReadRuns(0, math.MaxInt64, measure)
		res.SampledMisses, res.TotalInstructions = c.Stats().Misses, res.SampledInstructions
		return res, err
	}
	var before int64
	v := Visit{
		Open: func() {
			if cold {
				c.Reset()
			}
			before = c.Stats().Misses
		},
		Measure: measure,
		Close:   func() { res.SampledMisses += c.Stats().Misses - before },
	}
	if !cold {
		v.Warm = access
	}
	res.TotalInstructions, err = sched.Walk(src, v)
	return res, err
}

// Error compares a sampled estimate against the full-trace miss ratio,
// returning the relative error (positive = overestimate). A trace whose
// exact simulation records no misses has no meaningful baseline: Error
// returns ErrZeroBaseline (with sampled and full still filled in) instead of
// silently reporting relErr = 0.
func Error(cfg cache.Config, src trace.RunReader, plan Plan) (sampled, full, relErr float64, err error) {
	fullRes, err := Run(cfg, src, Plan{Window: 1, Period: 1, Mode: Warm})
	if err != nil {
		return 0, 0, 0, err
	}
	s, err := Run(cfg, src, plan)
	if err != nil {
		return 0, 0, 0, err
	}
	full = fullRes.MPI()
	sampled = s.MPI()
	if full == 0 {
		return sampled, full, 0, ErrZeroBaseline
	}
	relErr = (sampled - full) / full
	return sampled, full, relErr, nil
}
