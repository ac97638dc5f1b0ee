package check

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ibsim/internal/synth"
)

// The chaos suite itself: every scenario must pass against the current
// implementation, cover the six required fault classes, and be
// deterministic.
func TestRunChaosAllPass(t *testing.T) {
	opt := Options{Instructions: 50_000}
	results, err := Run(opt, Faults)
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	want := []string{
		"chaos/truncation", "chaos/bit-flip", "chaos/short-read",
		"chaos/error-after-n", "chaos/columnar-salvage",
		"chaos/write-fault-sticky",
		"chaos/over-budget-store",
		"chaos/worker-panic",
		"chaos/server-slow-loris", "chaos/server-cancel",
		"chaos/server-over-budget", "chaos/server-runs-tier",
		"chaos/server-panic",
		"chaos/crash-atomicio", "chaos/crash-manifest",
		"chaos/crash-spill",
	}
	if len(results) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Name != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, r.Name, want[i])
		}
		if !r.Passed {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		}
		if r.Detail == "" {
			t.Errorf("%s has no detail", r.Name)
		}
	}
}

// A panicking check is contained as a failing Result carrying the panic
// value, never a crash, and the checks after it still run.
func TestRunIsolatedContainsPanic(t *testing.T) {
	table := []Check{
		{"self/panic", func(Options) (string, error) { panic("scenario bug") }},
		Checks[0],
	}
	rs, err := Run(Options{Instructions: 5_000, Workloads: synth.IBSMach()[:1]}, table)
	if err != nil {
		t.Fatalf("a panic stopped the run: %v", err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results, want 2", len(rs))
	}
	if rs[0].Passed {
		t.Fatal("panicking check passed")
	}
	if !strings.Contains(rs[0].Detail, "scenario bug") {
		t.Fatalf("panic payload lost: %s", rs[0].Detail)
	}
	if !rs[1].Passed || rs[1].Name != Checks[0].Name {
		t.Fatalf("check after the panic: %+v", rs[1])
	}
}

// A Failf error fails only its own check; the run goes on and returns no
// error.
func TestRunFailfFailsOnlyItsCheck(t *testing.T) {
	table := []Check{
		{"self/fails", func(Options) (string, error) { return "", Failf("property broke at %d", 7) }},
		{"self/passes", func(Options) (string, error) { return "held", nil }},
	}
	rs, err := Run(Options{}, table)
	if err != nil {
		t.Fatalf("a check failure stopped the run: %v", err)
	}
	want := []Result{{Name: "self/fails", Detail: "property broke at 7"}, {Name: "self/passes", Passed: true, Detail: "held"}}
	if len(rs) != len(want) {
		t.Fatalf("%d results, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		r.Seconds = 0
		if r != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// Any other error is a harness failure: the run stops at it and returns it,
// with the failed check's Result last.
func TestRunStopsAtHarnessError(t *testing.T) {
	boom := errors.New("fixture unavailable")
	table := []Check{
		{"self/harness", func(Options) (string, error) { return "", boom }},
		{"self/unreached", func(Options) (string, error) { t.Error("ran after a harness error"); return "", nil }},
	}
	rs, err := Run(Options{}, table)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the harness error", err)
	}
	if len(rs) != 1 || rs[0].Passed || rs[0].Detail != boom.Error() {
		t.Fatalf("results = %+v, want the one failed harness check", rs)
	}
}

// The server scenarios leave no spill directory behind: each chaos server
// purges its store on stop, including the ones whose over-budget requests
// opened a columnar spill directory before failing.
func TestChaosServersLeaveNoSpillDirs(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	results, err := Run(Options{Instructions: 50_000, Match: "^chaos/server-"}, Faults)
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	for _, r := range results {
		if !r.Passed {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		}
	}
	left, err := filepath.Glob(filepath.Join(tmp, "ibsim-store-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d server scenarios left %d spill directories: %v", len(results), len(left), left)
	}
}
