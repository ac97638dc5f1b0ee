package ibsim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ibsim/internal/trace"
)

func TestWorkloadsRegistry(t *testing.T) {
	names := Workloads()
	if len(names) != 23 {
		t.Fatalf("Workloads() = %d entries", len(names))
	}
	w, err := LoadWorkload("gs")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "gs" {
		t.Fatalf("Name = %q", w.Name)
	}
	if _, err := LoadWorkload("bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(IBSMach()) != 8 || len(IBSUltrix()) != 8 || len(SPEC92()) != 3 {
		t.Fatal("suite constructors wrong")
	}
}

func TestGenerateTrace(t *testing.T) {
	w, _ := LoadWorkload("eqntott")
	refs, err := GenerateTrace(w, 10000)
	if err != nil {
		t.Fatal(err)
	}
	instr := 0
	for _, r := range refs {
		if r.Kind == IFetch {
			instr++
		}
	}
	if instr < 10000 {
		t.Fatalf("instructions = %d", instr)
	}
	only, err := GenerateInstructionTrace(w, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 5000 {
		t.Fatalf("instruction trace = %d refs", len(only))
	}
	for _, r := range only {
		if r.Kind != IFetch {
			t.Fatal("data ref in instruction trace")
		}
	}
}

func TestSimulateCache(t *testing.T) {
	w, _ := LoadWorkload("gs")
	st, err := SimulateCache(w, CacheConfig{Size: 8192, LineSize: 32, Assoc: 1}, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 200000 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	mpi := st.MissRatio()
	if mpi < 0.02 || mpi > 0.10 {
		t.Fatalf("gs MPI = %.4f, out of calibrated band", mpi)
	}
	if _, err := SimulateCache(w, CacheConfig{Size: 7}, 10); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestSimulateFetchEngines(t *testing.T) {
	w, _ := LoadWorkload("verilog")
	l1 := CacheConfig{Size: 8192, LineSize: 16, Assoc: 1}
	link := OnChipL2Link()
	block, err := SimulateFetch(w, FetchConfig{L1: l1, Link: link}, 200000)
	if err != nil {
		t.Fatal(err)
	}
	bypass, err := SimulateFetch(w, FetchConfig{L1: l1, Link: link, PrefetchLines: 3, Bypass: true}, 200000)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := SimulateFetch(w, FetchConfig{L1: l1, Link: link, StreamBufferLines: 6}, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !(bypass.CPIinstr() < block.CPIinstr()) {
		t.Errorf("bypass (%.3f) not below blocking (%.3f)", bypass.CPIinstr(), block.CPIinstr())
	}
	if !(stream.CPIinstr() < block.CPIinstr()) {
		t.Errorf("stream (%.3f) not below blocking (%.3f)", stream.CPIinstr(), block.CPIinstr())
	}
	if stream.BufferHits == 0 {
		t.Error("stream engine reported no buffer hits")
	}
}

func TestSimulateSystem(t *testing.T) {
	w, _ := LoadWorkload("sdet")
	comp, user, err := SimulateSystem(w, 150000)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Total() <= 0 {
		t.Fatal("zero CPI")
	}
	// sdet is 10% user / 90% OS under Mach.
	if user > 0.2 {
		t.Fatalf("sdet user share = %.2f, want ~0.10", user)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	w, _ := LoadWorkload("nroff")
	path := filepath.Join(t.TempDir(), "nroff.ibstrace")
	written, err := WriteTraceFile(path, w, 20000)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(refs)) != written {
		t.Fatalf("read %d refs, wrote %d", len(refs), written)
	}
	// Replaying the file matches replaying a fresh generation.
	fresh, err := GenerateTrace(w, 20000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CacheConfig{Size: 8192, LineSize: 32, Assoc: 1}
	a, err := ReplayCache(refs[:len(fresh)], cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayCache(fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Misses != b.Misses {
		t.Fatalf("file replay misses %d != fresh replay %d", a.Misses, b.Misses)
	}
}

// ConvertColumnarToTrace expands a columnar file block by block into the
// same bytes as encoding its whole expanded trace at once.
func TestConvertColumnarToTrace(t *testing.T) {
	w, _ := LoadWorkload("gs")
	refs, err := GenerateInstructionTrace(w, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	runs := trace.Compact(refs)
	var col bytes.Buffer
	blocks, err := trace.EncodeColumnarSize(&col, runs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if blocks < 3 {
		t.Fatalf("only %d blocks", blocks)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "gs.ibsc")
	if err := os.WriteFile(src, col.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	written, err := ConvertColumnarToTrace(src, filepath.Join(dir, "gs.ibstrace"))
	if err != nil {
		t.Fatal(err)
	}
	if written != uint64(len(refs)) {
		t.Fatalf("converted %d references, want %d", written, len(refs))
	}
	f, err := os.Create(filepath.Join(dir, "want.ibstrace"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.EncodeSeeker(f, trace.Expand(runs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "gs.ibstrace"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("converted file (%d bytes) differs from EncodeSeeker of the expanded runs (%d bytes)", len(got), len(want))
	}
}

// A record file converts to exactly the columnar bytes of its compacted
// instruction fetches, data references dropped, with the same run
// statistics; a truncated source, or one whose checksum fails only after the
// last record, returns its typed error and leaves no destination.
func TestConvertTraceToColumnar(t *testing.T) {
	w, _ := LoadWorkload("gs")
	dir := t.TempDir()
	src := filepath.Join(dir, "gs.ibstrace")
	if _, err := WriteTraceFile(src, w, 50_000); err != nil {
		t.Fatal(err)
	}
	refs, err := ReadTraceFile(src)
	if err != nil {
		t.Fatal(err)
	}
	runs := trace.Compact(refs)
	if n := trace.SummarizeRuns(runs).Instructions; n == int64(len(refs)) {
		t.Fatalf("fixture: no data references among %d", n)
	}
	var want bytes.Buffer
	if _, err := trace.EncodeColumnar(&want, runs); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "gs.ibsc")
	rs, err := ConvertTraceToColumnar(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rs != trace.SummarizeRuns(runs) {
		t.Fatalf("run stats %+v, want %+v", rs, trace.SummarizeRuns(runs))
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("converted file (%d bytes) differs from EncodeColumnar of the compacted references (%d bytes)", len(got), want.Len())
	}

	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(whole)
	corrupt[len(corrupt)-1] ^= 0xff // the CRC trailer
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", whole[:len(whole)/2], trace.ErrTruncated},
		{"corrupt", corrupt, trace.ErrCorrupt},
	} {
		bad := filepath.Join(dir, tc.name+".ibstrace")
		if err := os.WriteFile(bad, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, tc.name+".ibsc")
		if _, err := ConvertTraceToColumnar(bad, out); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		left, err := filepath.Glob(filepath.Join(dir, "*"+tc.name+".ibsc*"))
		if err != nil || len(left) != 0 {
			t.Errorf("%s: left %v (glob err %v)", tc.name, left, err)
		}
	}
}

func TestReplayFetch(t *testing.T) {
	w, _ := LoadWorkload("eqntott")
	refs, _ := GenerateInstructionTrace(w, 50000)
	res, err := ReplayFetch(refs, FetchConfig{
		L1:   CacheConfig{Size: 8192, LineSize: 32, Assoc: 1},
		Link: OnChipL2Link(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 50000 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}

func TestBaselineLinks(t *testing.T) {
	if EconomyMemory().Latency != 30 || EconomyMemory().BytesPerCycle != 4 {
		t.Error("economy link wrong")
	}
	if HighPerformanceMemory().Latency != 12 || HighPerformanceMemory().BytesPerCycle != 8 {
		t.Error("high-performance link wrong")
	}
	if OnChipL2Link().Latency != 6 || OnChipL2Link().BytesPerCycle != 16 {
		t.Error("on-chip link wrong")
	}
}
