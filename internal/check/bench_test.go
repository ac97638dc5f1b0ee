package check

import (
	"context"
	"strings"
	"testing"

	"ibsim/internal/synth"
)

// TestRunBenchOffGoldenScale verifies stages run, are timed, and skip value
// comparison away from the pinned scale.
func TestRunBenchOffGoldenScale(t *testing.T) {
	stages, err := RunBench(Options{Instructions: 20_000})
	if err != nil {
		t.Fatalf("RunBench: %v", err)
	}
	if len(stages) != len(benchStages()) {
		t.Fatalf("got %d stages, want %d", len(stages), len(benchStages()))
	}
	for _, s := range stages {
		if !s.Passed {
			t.Errorf("stage %s failed off golden scale: %s", s.Name, s.Detail)
		}
		if s.Seconds < 0 {
			t.Errorf("stage %s has negative wall clock", s.Name)
		}
		if s.Name != "generate/ibs-suite" && s.Name != "trace/codec" &&
			!strings.Contains(s.Detail, "off golden scale") {
			t.Errorf("stage %s compared goldens off scale: %s", s.Name, s.Detail)
		}
	}
}

// The generation stage times generation, not memo hits: from a warm store
// it still misses once per workload.
func TestGenerateStageMissesWarmStore(t *testing.T) {
	opt := Options{Instructions: 20_000, Workloads: synth.IBSMach()[:3]}.withDefaults()
	for _, p := range opt.Workloads {
		_, _, release, err := synth.DefaultStore.Acquire(context.Background(), p, opt.Seed, opt.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	before := synth.DefaultStore.Stats()
	if _, err := stageGenerate(opt); err != nil {
		t.Fatal(err)
	}
	after := synth.DefaultStore.Stats()
	if misses := after.Misses - before.Misses; misses != int64(len(opt.Workloads)) {
		t.Fatalf("stage missed the store %d times for %d workloads (hits %d)",
			misses, len(opt.Workloads), after.Hits-before.Hits)
	}
}

// TestRunBenchGoldenScale runs the pinned configuration end to end: every
// tracked stage must land inside golden tolerance. This is the in-test twin
// of `go run ./cmd/ibscheck -n 200000`.
func TestRunBenchGoldenScale(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned-scale bench runs via make check / full go test")
	}
	stages, err := RunBench(Options{})
	if err != nil {
		t.Fatalf("RunBench: %v", err)
	}
	for _, s := range stages {
		if !s.Passed {
			t.Errorf("stage %s regressed: %s", s.Name, s.Detail)
		}
	}
}

// TestGoldenCompare verifies the tolerance arithmetic accepts exact matches
// and rejects drift beyond tolerance.
func TestGoldenCompare(t *testing.T) {
	g := Golden{CPI: 0.5, MPI: 0.05}
	if ok, _ := g.compare(0.5, 0.05); !ok {
		t.Error("exact match rejected")
	}
	if ok, detail := g.compare(0.5000001, 0.05); ok {
		t.Errorf("CPI drift 2e-7 beyond 1e-9 tolerance accepted: %s", detail)
	}
	if ok, _ := g.compare(0.5, 0.050001); ok {
		t.Error("MPI drift accepted")
	}
	loose := Golden{CPI: 0.5, MPI: 0.05, RelTol: 0.01}
	if ok, _ := loose.compare(0.502, 0.0502); !ok {
		t.Error("drift within explicit 1% tolerance rejected")
	}
}

// TestGoldenLiteral checks the regeneration helper emits every tracked
// stage and no untracked ones.
func TestGoldenLiteral(t *testing.T) {
	stages := []Stage{
		{Name: "fetch/blocking", CPI: 0.25, MPI: 0.03, Detail: "cpi ..."},
		{Name: "generate/ibs-suite", Detail: "timing only (untracked)"},
	}
	lit := GoldenLiteral(stages)
	if !strings.Contains(lit, `"fetch/blocking": {CPI: 0.25, MPI: 0.03}`) {
		t.Errorf("literal missing tracked stage:\n%s", lit)
	}
	if strings.Contains(lit, "generate/ibs-suite") {
		t.Errorf("literal includes untracked stage:\n%s", lit)
	}
}

// TestGoldensMatchStageSet keeps golden.go and the stage list in sync: every
// golden key must name a pinned stage.
func TestGoldensMatchStageSet(t *testing.T) {
	names := map[string]bool{}
	for _, bs := range benchStages() {
		names[bs.name] = true
	}
	for k := range goldens {
		if !names[k] {
			t.Errorf("golden %q has no matching bench stage", k)
		}
	}
}
