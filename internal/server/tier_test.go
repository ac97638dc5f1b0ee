package server

import (
	"reflect"
	"strings"
	"testing"

	"ibsim/internal/synth"
)

// The hard budgets of the tier tests bracket the trace forms of eqntott at
// 100k instructions (refs 1.6 MB, run compaction about 210 KB, columnar file
// tens of KB): 512 KiB admits the runs but not the refs, 128 KiB the
// columnar file but not the runs, and 1 KiB nothing, so Acquire serves the
// runs, columnar and seek tiers.
type tierBudget struct {
	name   string
	hard   int64 // 0: unlimited
	tier   synth.Tier
	reason string // in an exact answer's degraded reason
}

// Exact answers come from the run compaction: a store whose budget cannot
// hold the ref trace but can hold its runs answers every request with the
// unlimited store's numbers, and an exact answer from the runs is not
// degraded. Only a store too small for the runs steps down to the columnar
// and seek tiers (TestColumnarTierEngagesBeforeStreaming,
// TestSeekTierServesExplicitSkipSampling).
func TestSamplingTierEngagesBeforeStreaming(t *testing.T) {
	checkTiers(t, []tierBudget{
		{"unlimited", 0, synth.TierRuns, ""},
		{"512KiB", 1 << 19, synth.TierRuns, ""},
	})
}

// The columnar-disk tier sits between the runs and streaming: a store whose
// budget rejects the run compaction but admits the much smaller columnar
// file answers exactly from disk, marked degraded with a columnar reason,
// and serves every explicitly sampled request as asked, not degraded.
func TestColumnarTierEngagesBeforeStreaming(t *testing.T) {
	checkTiers(t, []tierBudget{{"128KiB", 1 << 17, synth.TierColumnar, "columnar"}})
}

// A store too small for even the columnar file serves every request from
// checkpointed regeneration: exact answers stream, degraded with a stream
// reason, and skip-, warm- and set-sampled requests are honoured exactly as
// asked, not degraded. Warm sampling used to fall to a degraded exact
// stream here; it is now served sampled like the others.
func TestSeekTierServesExplicitSkipSampling(t *testing.T) {
	checkTiers(t, []tierBudget{{"1KiB", 1 << 10, synth.TierSeek, "stream"}})
}

// checkTiers asks a store of each budget for exact, skip-, warm- and
// set-sampled (sweep only) answers from both endpoints and checks every
// answer against the unlimited store's numbers. An exact answer is
// degraded, with its tier's reason, exactly when the runs did not serve it;
// a sampled answer is served as asked from any tier, with intervals, and is
// never degraded. Each request served from the columnar or seek tier adds
// one to that tier's counter.
func checkTiers(t *testing.T, budgets []tierBudget) {
	t.Helper()
	cells := []CellSpec{{Sets: 256, Assoc: 1}, {Sets: 1024, Assoc: 1}}
	engines := []EngineSpec{{Size: 8192, LineSize: 32, Assoc: 1, Link: LinkSpec{Name: "economy"}}}
	specs := []struct {
		name      string
		spec      *SamplingSpec
		mode      string
		sweepOnly bool
	}{
		{"exact", nil, "", false},
		{"skip", &SamplingSpec{Window: 1000, Period: 8000, Skip: true}, "time", false},
		{"warm", &SamplingSpec{Window: 1000, Period: 8000}, "time", false},
		{"set", &SamplingSpec{Set: 16}, "set", true},
	}

	// answer is one response with the fields a tier may change split off
	// and cleared in body.
	type answer struct {
		body     any
		degraded bool
		reason   string
		sampling *SamplingInfo
	}
	ask := func(t *testing.T, url, endpoint string, spec *SamplingSpec) answer {
		t.Helper()
		if endpoint == "sweep" {
			req := SweepRequest{Workload: "eqntott", Instructions: 100_000, LineSize: 32, Cells: cells, Sampling: spec}
			var resp SweepResponse
			if code, raw := postJSON(t, url+"/v1/sweep", req, &resp); code != 200 {
				t.Fatalf("sweep = %d: %s", code, raw)
			}
			a := answer{degraded: resp.Degraded, reason: resp.DegradedReason, sampling: resp.Sampling}
			resp.ElapsedSeconds, resp.Degraded, resp.DegradedReason = 0, false, ""
			a.body = resp
			return a
		}
		req := ReplayRequest{Workload: "eqntott", Instructions: 100_000, Engines: engines, Sampling: spec}
		var resp ReplayResponse
		if code, raw := postJSON(t, url+"/v1/replay", req, &resp); code != 200 {
			t.Fatalf("replay = %d: %s", code, raw)
		}
		a := answer{degraded: resp.Degraded, reason: resp.DegradedReason, sampling: resp.Sampling}
		resp.ElapsedSeconds, resp.Degraded, resp.DegradedReason = 0, false, ""
		a.body = resp
		return a
	}

	_, ref := testServer(t, nil) // unlimited store: the oracle
	want := map[string]answer{}
	for _, sc := range specs {
		for _, ep := range []string{"sweep", "replay"} {
			if ep == "replay" && sc.sweepOnly {
				continue
			}
			want[ep+"/"+sc.name] = ask(t, ref.URL, ep, sc.spec)
		}
	}

	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			s, ts := testServer(t, func(c *Config) {
				if b.hard > 0 {
					c.Store = synth.NewStoreLimits(1<<26, b.hard)
				}
				t.Cleanup(c.Store.Purge) // removes the spill files and directory
			})
			for _, sc := range specs {
				for _, ep := range []string{"sweep", "replay"} {
					if ep == "replay" && sc.sweepOnly {
						continue
					}
					name := ep + "/" + sc.name
					col, seek := s.mColumnar.Value(), s.mSeek.Value()
					got := ask(t, ts.URL, ep, sc.spec)
					if !reflect.DeepEqual(got.body, want[name].body) {
						t.Errorf("%s: answer differs from the unlimited store's:\n got %+v\nwant %+v", name, got.body, want[name].body)
					}
					switch {
					case sc.spec != nil:
						if got.degraded {
							t.Errorf("%s: requested sampling marked degraded: %q", name, got.reason)
						}
						if got.sampling == nil || got.sampling.Mode != sc.mode || got.sampling.CI95 <= 0 {
							t.Errorf("%s: sampling block %+v, want mode %s with intervals", name, got.sampling, sc.mode)
						}
					case b.reason == "":
						if got.degraded {
							t.Errorf("%s: exact answer from the runs marked degraded: %q", name, got.reason)
						}
					case !got.degraded || !strings.Contains(got.reason, b.reason):
						t.Errorf("%s: degraded=%v reason=%q, want degraded with %q", name, got.degraded, got.reason, b.reason)
					}
					if sc.spec == nil && got.sampling != nil {
						t.Errorf("%s: exact answer carries a sampling block %+v", name, got.sampling)
					}
					wantCol, wantSeek := int64(0), int64(0)
					switch b.tier {
					case synth.TierColumnar:
						wantCol = 1
					case synth.TierSeek:
						wantSeek = 1
					}
					if d := s.mColumnar.Value() - col; d != wantCol {
						t.Errorf("%s: columnar_tier_total grew by %d, want %d", name, d, wantCol)
					}
					if d := s.mSeek.Value() - seek; d != wantSeek {
						t.Errorf("%s: seek_tier_total grew by %d, want %d", name, d, wantSeek)
					}
				}
			}
		})
	}
}
