package check

import (
	"testing"

	"ibsim/internal/trace"
)

func TestParallelVsSerial(t *testing.T) {
	opt := testOpt(t)
	if testing.Short() {
		opt.Instructions = 20_000
	}
	requireAllPass(t, opt, Checks, "^differential/parallel-serial-")
}

func TestTraceRoundTrip(t *testing.T) {
	requireAllPass(t, testOpt(t), Checks, "^differential/trace-roundtrip$")
}

// TestRefsDiffer exercises the comparator the round-trip check relies on.
func TestRefsDiffer(t *testing.T) {
	a := []trace.Ref{{Addr: 1}, {Addr: 2}}
	if d := refsDiffer(a, a); d != "" {
		t.Fatalf("identical slices reported different: %s", d)
	}
	if d := refsDiffer(a, a[:1]); d == "" {
		t.Fatal("length mismatch not reported")
	}
	b := []trace.Ref{{Addr: 1}, {Addr: 3}}
	if d := refsDiffer(a, b); d == "" {
		t.Fatal("element mismatch not reported")
	}
}
