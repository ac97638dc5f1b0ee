package experiments

import (
	"testing"

	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
)

// TestMapBanksMatchesPerConfig is the differential property test for the
// fan-out runner: mapBanks on the default path (memoized run-compacted
// trace, replay.Replay with bulk FetchRuns and one L1 pass per content
// class) must return Results bit-identical to the PerConfig reference path
// (one fetch.Run over the expanded trace per engine). The bank deliberately
// mixes class members (three blocking engines sharing BaseL1 behind
// different links; a prefetching engine whose class a bypass engine leads;
// a stream buffer), and a sector cache, which runs whole.
func TestMapBanksMatchesPerConfig(t *testing.T) {
	profiles := ibsProfiles()[:3]
	opt := Options{Instructions: 40_000}
	link := memsys.L1L2Link()
	mk := func() ([]fetch.Engine, error) {
		var engines []fetch.Engine
		for _, e := range []func() (fetch.Engine, error){
			func() (fetch.Engine, error) { return fetch.NewBlocking(BaseL1(), link, 0) },
			func() (fetch.Engine, error) { return fetch.NewBlocking(BaseL1(), memsys.Economy().Memory, 0) },
			func() (fetch.Engine, error) { return fetch.NewBlocking(BaseL1(), memsys.HighPerformance().Memory, 0) },
			func() (fetch.Engine, error) { return fetch.NewBlocking(baseL1WithLine(16), link, 3) },
			func() (fetch.Engine, error) {
				cfg := BaseL1()
				cfg.LineSize, cfg.SubBlock = 64, 16
				return fetch.NewBlocking(cfg, link, 0)
			},
			func() (fetch.Engine, error) { return fetch.NewBypass(baseL1WithLine(16), link, 3) },
			func() (fetch.Engine, error) { return fetch.NewStream(baseL1WithLine(16), link, 6) },
		} {
			eng, err := e()
			if err != nil {
				return nil, err
			}
			engines = append(engines, eng)
		}
		return engines, nil
	}

	refOpt := opt
	refOpt.PerConfig = true
	refOpt.Workers = 1
	want, err := mapBanks(profiles, refOpt, mk)
	if err != nil {
		t.Fatalf("per-config mapBanks: %v", err)
	}
	got, err := mapBanks(profiles, opt, mk)
	if err != nil {
		t.Fatalf("fan-out mapBanks: %v", err)
	}
	for p := range want {
		for e := range want[p] {
			if got[p][e] != want[p][e] {
				t.Errorf("profile %s engine %d: fan-out %+v != per-config %+v",
					profiles[p].Name, e, got[p][e], want[p][e])
			}
		}
	}
}

// TestFanoutExperimentsRenderIdentical runs every bank-based exhibit both
// ways: the rendered output (the exact bytes cmd/ibstables would print)
// must match between the fan-out path and the PerConfig reference path.
// internal/check's differential/fanout-tables pins the same property at the
// pinned scale.
func TestFanoutExperimentsRenderIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-exhibit differential is covered by internal/check in short mode")
	}
	opt := Options{Instructions: 60_000}
	ref := Options{Instructions: 60_000, PerConfig: true, Workers: 1}
	for _, e := range []struct {
		name string
		run  func(Options) (string, error)
	}{
		{"Table5", func(o Options) (string, error) {
			r, err := Table5(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table6", func(o Options) (string, error) {
			r, err := Table6(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table7", func(o Options) (string, error) {
			r, err := Table7(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table8", func(o Options) (string, error) {
			r, err := Table8(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figure6", func(o Options) (string, error) {
			r, err := Figure6(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figure7", func(o Options) (string, error) {
			r, err := Figure7(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	} {
		got, err := e.run(opt)
		if err != nil {
			t.Fatalf("%s fan-out: %v", e.name, err)
		}
		want, err := e.run(ref)
		if err != nil {
			t.Fatalf("%s per-config: %v", e.name, err)
		}
		if got != want {
			t.Errorf("%s: fan-out render differs from per-config render\n--- fan-out ---\n%s--- per-config ---\n%s", e.name, got, want)
		}
	}
}
