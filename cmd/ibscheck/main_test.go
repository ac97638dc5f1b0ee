package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibsim/internal/check"
)

// TestRunSmall runs the harness end to end at a tiny scale and validates the
// JSON report shape.
func TestRunSmall(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_ibsim.json")
	if code := run([]string{"-n", "8000", "-o", out}); code != 0 {
		t.Fatalf("run exited %d, want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep check.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != "ibsim-bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.GoldenScale {
		t.Error("8k-instruction run claimed golden scale")
	}
	if !rep.Passed {
		t.Error("report says failed, exit code said passed")
	}
	if len(rep.Checks) == 0 || len(rep.Stages) == 0 {
		t.Fatalf("report missing checks (%d) or stages (%d)", len(rep.Checks), len(rep.Stages))
	}
	for _, s := range rep.Stages {
		if s.Seconds < 0 {
			t.Errorf("stage %s: negative timing", s.Name)
		}
	}
}

// TestPrintGolden checks the regeneration mode emits a parseable literal.
func TestPrintGolden(t *testing.T) {
	// Capture stdout.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run([]string{"-n", "8000", "-print-golden"})
	w.Close()
	os.Stdout = old
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if code != 0 {
		t.Fatalf("print-golden exited %d", code)
	}
	got := b.String()
	if !strings.Contains(got, "var goldens = map[string]Golden{") ||
		!strings.Contains(got, `"fetch/blocking"`) {
		t.Fatalf("golden literal malformed:\n%s", got)
	}
}

// TestBenchOnly skips the invariant checks.
func TestBenchOnly(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if code := run([]string{"-n", "8000", "-bench-only", "-o", out}); code != 0 {
		t.Fatalf("bench-only run exited %d", code)
	}
	var rep check.Report
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 0 {
		t.Errorf("bench-only report carries %d checks", len(rep.Checks))
	}
	if len(rep.Stages) == 0 {
		t.Error("bench-only report has no stages")
	}
}

// TestMatchSelectsChecks runs only the sampling checks: the report holds
// exactly those four and no bench stages.
func TestMatchSelectsChecks(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	if code := run([]string{"-n", "20000", "-match", "^sampling/", "-o", out}); code != 0 {
		t.Fatalf("run exited %d, want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep check.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := []string{"sampling/bounds-set", "sampling/bounds-time-warm", "sampling/warm-unbiased", "sampling/cold-bias"}
	if len(rep.Checks) != len(want) || len(rep.Stages) != 0 {
		t.Fatalf("report holds %d checks and %d stages, want %d and none", len(rep.Checks), len(rep.Stages), len(want))
	}
	for i, r := range rep.Checks {
		if r.Name != want[i] {
			t.Errorf("check %d = %q, want %q", i, r.Name, want[i])
		}
	}
}

// TestUsageErrors: a positional argument, a -match that selects nothing or
// does not compile, and a -match with -bench-only each exit 2 without
// running a check.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-o", "", "sampling-bounds"},
		{"-o", "", "-match", "^nonesuch/"},
		{"-o", "", "-faults", "-match", "^nonesuch/"},
		{"-o", "", "-match", "("},
		{"-o", "", "-bench-only", "-match", "^sampling/"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", args, code)
		}
	}
}
