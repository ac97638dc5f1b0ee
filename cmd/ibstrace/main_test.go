package main

import (
	"path/filepath"
	"strings"
	"testing"

	"ibsim"
)

func TestReport(t *testing.T) {
	if err := report("eqntott", 32, 30_000); err != nil {
		t.Fatal(err)
	}
}

func TestReportUnknownWorkload(t *testing.T) {
	if err := report("nonesuch", 32, 1000); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestReportBadLineSize(t *testing.T) {
	if err := report("eqntott", 24, 1000); err == nil {
		t.Fatal("bad line size accepted")
	}
}

// TestConvertRoundTrip drives the CLI conversion both ways: a record trace
// converted to columnar and back must reproduce exactly its instruction
// fetches (data references are dropped by the columnar format).
func TestConvertRoundTrip(t *testing.T) {
	w, err := ibsim.LoadWorkload("nroff")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec := filepath.Join(dir, "nroff.ibstrace")
	if _, err := ibsim.WriteTraceFile(rec, w, 20_000); err != nil {
		t.Fatal(err)
	}
	col := filepath.Join(dir, "nroff.ibsc")
	if err := convertFile(rec, col); err != nil {
		t.Fatalf("record -> columnar: %v", err)
	}
	if ok, err := ibsim.IsColumnarTraceFile(col); err != nil || !ok {
		t.Fatalf("converted file does not sniff as columnar (ok=%v err=%v)", ok, err)
	}
	if err := reportColumnar(col); err != nil {
		t.Fatalf("columnar report: %v", err)
	}

	back := filepath.Join(dir, "nroff-back.ibstrace")
	if err := convertFile(col, back); err != nil {
		t.Fatalf("columnar -> record: %v", err)
	}
	orig, complete, err := ibsim.SalvageTraceFile(rec)
	if err != nil || !complete {
		t.Fatalf("reading original: complete=%v err=%v", complete, err)
	}
	got, complete, err := ibsim.SalvageTraceFile(back)
	if err != nil || !complete {
		t.Fatalf("reading round-tripped: complete=%v err=%v", complete, err)
	}
	var fetches []ibsim.Ref
	for _, r := range orig {
		if r.Kind == ibsim.IFetch {
			fetches = append(fetches, r)
		}
	}
	if len(got) != len(fetches) {
		t.Fatalf("round trip yields %d refs, original has %d instruction fetches", len(got), len(fetches))
	}
	for i := range got {
		if got[i] != fetches[i] {
			t.Fatalf("ref %d: round trip %+v, original fetch %+v", i, got[i], fetches[i])
		}
	}
}

func TestConvertMissingSource(t *testing.T) {
	dir := t.TempDir()
	if err := convertFile(filepath.Join(dir, "nope.ibstrace"), filepath.Join(dir, "out.ibsc")); err == nil {
		t.Fatal("missing source accepted")
	}
}

// TestSeekCheck drives the -seek spot-check: the first, a middle and the
// last instruction pass (the middle and last past the first checkpoint),
// while a past-the-end or negative index is an error naming the flag.
func TestSeekCheck(t *testing.T) {
	const n = 40_000
	for _, i := range []int64{0, n / 2, n - 1} {
		if err := seekCheck("eqntott", n, i); err != nil {
			t.Errorf("-seek %d: %v", i, err)
		}
	}
	for _, i := range []int64{n, -5} {
		err := seekCheck("eqntott", n, i)
		if err == nil || !strings.Contains(err.Error(), "-seek") {
			t.Errorf("-seek %d: err = %v, want an error naming -seek", i, err)
		}
	}
}
