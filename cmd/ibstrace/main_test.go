package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
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

// A record file is reported from one streaming pass exactly as from its
// salvaged references in memory: the locality analysis of the salvaged
// prefix, then the run statistics of its compaction. Damaged files, cut
// short or with a broken checksum, also warn on stderr.
func TestReportRecordMatchesSalvage(t *testing.T) {
	w, err := ibsim.LoadWorkload("gcc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	intact := filepath.Join(dir, "gcc.ibstrace")
	if _, err := ibsim.WriteTraceFile(intact, w, 30_000); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.ibstrace")
	crc := filepath.Join(dir, "crc.ibstrace")
	flipped := bytes.Clone(data)
	flipped[len(flipped)-1] ^= 0x10
	for path, b := range map[string][]byte{truncated: data[:len(data)/2+1], crc: flipped} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{intact, truncated, crc} {
		refs, complete, _ := ibsim.SalvageTraceFile(path)
		a, err := ibsim.AnalyzeLocality(refs, 32)
		if err != nil {
			t.Fatal(err)
		}
		var want, got, warn bytes.Buffer
		fmt.Fprintf(&want, "== %s ==\n%s", path, a.Report())
		printRunStats(&want, ibsim.SummarizeRuns(ibsim.CompactTrace(refs)))
		if err := reportRecord(&got, &warn, path, 32); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: streamed report\n%s\nwant the salvaged refs' report\n%s", path, &got, &want)
		}
		if damaged := strings.Contains(warn.String(), "WARNING"); damaged == complete {
			t.Errorf("%s: complete=%v but stderr %q", path, complete, &warn)
		}
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
// and each target at or above the minimum interval restores a checkpoint at
// or below it, which the report names; a target under it says that it
// regenerated from zero. A past-the-end or negative index is an error
// naming the flag.
func TestSeekCheck(t *testing.T) {
	for _, tc := range []struct {
		n, i     int64
		restored string
	}{
		{40_000, 0, "none: no checkpoint at or below instruction 0, regenerated from instruction 0"},
		{40_000, 20_000, "checkpoint at instruction 16384, then generated 3616 instructions"},
		{40_000, 39_999, "checkpoint at instruction 32768, then generated 7231 instructions"},
		{20_000, 10_000, "checkpoint at instruction 8192, then generated 1808 instructions"},
		{20_000, 300, "checkpoint at instruction 256, then generated 44 instructions"},
	} {
		var out strings.Builder
		if err := seekCheck(&out, "eqntott", tc.n, tc.i); err != nil {
			t.Errorf("-n %d -seek %d: %v", tc.n, tc.i, err)
			continue
		}
		if want := "restored:   " + tc.restored + "\n"; !strings.Contains(out.String(), want) {
			t.Errorf("-n %d -seek %d: report lacks %q:\n%s", tc.n, tc.i, want, out.String())
		}
	}
	const n = 40_000
	for _, i := range []int64{n, -5} {
		err := seekCheck(io.Discard, "eqntott", n, i)
		if err == nil || !strings.Contains(err.Error(), "-seek") {
			t.Errorf("-seek %d: err = %v, want an error naming -seek", i, err)
		}
	}
}

// TestChooseMode: the first of -seek, -convert, -file and -workload that is
// set picks the mode, every flag that mode reads is accepted with it, and any
// other set flag is an error naming it; setting none of them picks no mode.
func TestChooseMode(t *testing.T) {
	for _, tc := range []struct {
		set      []string // flag.Visit order: sorted by name
		mode     string
		rejected string // the flag the error must name; "" for no error
	}{
		{[]string{"n", "seek", "workload"}, "seek", ""},
		{[]string{"convert", "file"}, "convert", ""},
		{[]string{"file", "line"}, "file", ""},
		{[]string{"compare", "line", "n", "workload"}, "workload", ""},
		{[]string{"file", "seek", "workload"}, "", "-file"},
		{[]string{"line", "seek", "workload"}, "", "-line"},
		{[]string{"convert", "file", "line"}, "", "-line"},
		{[]string{"convert", "seek"}, "", "-convert"},
		{[]string{"file", "workload"}, "", "-workload"},
		{[]string{"file", "n"}, "", "-n"},
		{[]string{"compare", "file"}, "", "-compare"},
	} {
		mode, err := chooseMode(tc.set)
		if tc.rejected == "" {
			if err != nil || mode != tc.mode {
				t.Errorf("%v: mode %q, err %v; want mode %q", tc.set, mode, err, tc.mode)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.rejected+" is not used") {
			t.Errorf("%v: mode %q, err %v; want an error naming %s", tc.set, mode, err, tc.rejected)
		}
	}
	for _, set := range [][]string{nil, {"compare"}, {"line", "n"}} {
		if mode, err := chooseMode(set); mode != "" || err != nil {
			t.Errorf("%v: mode %q, err %v; want no mode", set, mode, err)
		}
	}
}
