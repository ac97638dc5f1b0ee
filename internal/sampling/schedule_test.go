package sampling_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/replay"
	"ibsim/internal/sampling"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// read is one ReadRuns call: the range asked for and the instructions the
// source handed out for it.
type read struct{ pos, n, got int64 }

// readLog records every ReadRuns call a consumer makes.
type readLog struct {
	trace.RunReader
	reads []read
}

func (l *readLog) ReadRuns(pos, n int64, fn func([]trace.Run) error) error {
	r := read{pos: pos, n: n}
	err := l.RunReader.ReadRuns(pos, n, func(runs []trace.Run) error {
		for _, run := range runs {
			r.got += run.Len
		}
		return fn(runs)
	})
	l.reads = append(l.reads, r)
	return err
}

// wantReads derives the reads a consumer of s makes over total instructions
// from position arithmetic alone: instruction i belongs to window i/Period,
// measured when i%Period < Window and part of that window's gap otherwise.
// A consumer that reads the whole trace at once makes one read instead, and
// measures it as one window.
func wantReads(s sampling.Schedule, total int64, warm, whole bool) (reads []read, measured int64, windows int) {
	if whole {
		return []read{{0, math.MaxInt64, total}}, total, 1
	}
	windows = int((total + s.Period - 1) / s.Period)
	inWin := make([]int64, windows)
	inGap := make([]int64, windows)
	for i := int64(0); i < total; i++ {
		if i%s.Period < s.Window {
			inWin[i/s.Period]++
		} else {
			inGap[i/s.Period]++
		}
	}
	for w := range windows {
		start := int64(w) * s.Period
		reads = append(reads, read{start, s.Window, inWin[w]})
		measured += inWin[w]
		if warm && s.Window < s.Period {
			reads = append(reads, read{start + s.Window, s.Period - s.Window, inGap[w]})
		}
	}
	return reads, measured, windows
}

// The sweep, replay.Run and sampling.Run walk one schedule: over the
// same trace each reads exactly the windows (and, warm, the gaps) position
// arithmetic gives, and reports the measured instructions those windows
// hold, one variance cluster per window.
func TestSamplingSchedulesAgree(t *testing.T) {
	const total = 40_000
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 3, total)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewRunReader(trace.Compact(refs))
	cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
	for _, tc := range []struct {
		name  string
		sched sampling.Schedule
		mode  string // warm, skip or cold; sampling.Run has no skip mode and runs a skip row warm
	}{
		{"warm", sampling.Schedule{Window: 1_000, Period: 4_000}, "warm"},
		{"skip", sampling.Schedule{Window: 1_000, Period: 4_000}, "skip"},
		{"cold", sampling.Schedule{Window: 2_500, Period: 5_000}, "cold"},
		{"window=period", sampling.Schedule{Window: 2_000, Period: 2_000}, "warm"},
		{"window=period-cold", sampling.Schedule{Window: 2_000, Period: 2_000}, "cold"},
		{"ragged-period", sampling.Schedule{Window: 6_000, Period: 7_000}, "warm"},
		{"window-1", sampling.Schedule{Window: 1, Period: 1_000}, "skip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sched
			full := s.Window == s.Period
			// check compares a consumer's reads and measured count with
			// position arithmetic, and its cluster count unless negative.
			check := func(who string, log *readLog, measured int64, clusters int, warm, whole bool) {
				t.Helper()
				want, wantMeasured, windows := wantReads(s, total, warm, whole)
				if !reflect.DeepEqual(log.reads, want) {
					t.Errorf("%s read %v, want %v", who, log.reads, want)
				}
				if measured != wantMeasured {
					t.Errorf("%s measured %d instructions, want %d", who, measured, wantMeasured)
				}
				if clusters >= 0 && clusters != windows {
					t.Errorf("%s reported %d clusters, want %d", who, clusters, windows)
				}
			}
			warm := tc.mode == "warm"

			log := &readLog{RunReader: src}
			sm, err := sweep.SampledPass{LineSize: 32, Cells: []sweep.Cell{{Sets: 256, Assoc: 1}},
				Window: s.Window, Period: s.Period, Warm: warm}.Sweep(log)
			if err != nil {
				t.Fatal(err)
			}
			check("sweep", log, sm.SampledInstructions, sm.Estimates[0].Clusters, warm, full)

			log = &readLog{RunReader: src}
			e, err := fetch.NewBlocking(cfg, memsys.Transfer{Latency: 6, BytesPerCycle: 16}, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := replay.Run(context.Background(), log, []fetch.Engine{e},
				replay.SamplePlan{Window: s.Window, Period: s.Period, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			check("replay", log, res[0].Measured.Instructions, res[0].Estimate.Clusters, warm, full)

			log = &readLog{RunReader: src}
			mode, runWarm := sampling.Warm, true
			if tc.mode == "cold" {
				mode, runWarm = sampling.Cold, false
			}
			r, err := sampling.Run(cfg, log, sampling.Plan{Window: s.Window, Period: s.Period, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			check("sampling.Run", log, r.SampledInstructions, -1, runWarm, full && runWarm)
			if r.TotalInstructions != total {
				t.Errorf("sampling.Run total %d, want %d", r.TotalInstructions, total)
			}
		})
	}
}
