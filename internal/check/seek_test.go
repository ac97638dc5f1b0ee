package check

import (
	"strings"
	"testing"
)

// The checkpoint-seek differential must hold at a sub-golden scale that
// still spans many windows and checkpoints.
func TestSeekChecksPass(t *testing.T) {
	results, err := SeekChecks(Options{Instructions: 80_000})
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	if len(results) != 1 || results[0].Name != "differential/seek-sampled" {
		t.Fatalf("results = %+v, want the one differential/seek-sampled check", results)
	}
	if !results[0].Passed {
		t.Errorf("%s failed: %s", results[0].Name, results[0].Detail)
	}
	if !strings.Contains(results[0].Detail, "checkpoints") {
		t.Errorf("seek-sampled detail does not report the checkpoint index: %s", results[0].Detail)
	}
}

// The chaos checkpoint-corruption scenario in isolation (it also runs
// inside RunChaos).
func TestChaosCheckpointCorrupt(t *testing.T) {
	opt := Options{Instructions: 50_000}.withDefaults()
	r := chaosCheckpointCorrupt(opt.Workloads[0], opt.Seed)
	if !r.Passed {
		t.Fatalf("%s: %s", r.Name, r.Detail)
	}
	if !strings.Contains(r.Detail, "CRC") {
		t.Fatalf("detail does not describe CRC detection: %s", r.Detail)
	}
}
