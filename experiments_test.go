package ibsim

import (
	"context"
	"os"
	"strings"
	"testing"
	"unsafe"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// TestEveryExperimentWiring runs each public experiment constructor once at
// a tiny budget and checks its rendering is non-trivial — guarding the
// facade wiring and the render paths end to end. Shape assertions live in
// internal/experiments; this is the public-API smoke pass.
func TestEveryExperimentWiring(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment once")
	}
	opt := Options{Instructions: 60_000, Trials: 2}

	type namedRender struct {
		name string
		run  func() (string, error)
	}
	cases := []namedRender{
		{"Table1", func() (string, error) { r, err := Table1(opt); return render(r, err) }},
		{"Table3", func() (string, error) { r, err := Table3(opt); return render(r, err) }},
		{"Table4", func() (string, error) { r, err := Table4(opt); return render(r, err) }},
		{"Table5", func() (string, error) { r, err := Table5(opt); return render(r, err) }},
		{"Table6", func() (string, error) { r, err := Table6(opt); return render(r, err) }},
		{"Table7", func() (string, error) { r, err := Table7(opt); return render(r, err) }},
		{"Table8", func() (string, error) { r, err := Table8(opt); return render(r, err) }},
		{"Figure1", func() (string, error) { r, err := Figure1(opt); return render(r, err) }},
		{"Figure3", func() (string, error) { r, err := Figure3(opt); return render(r, err) }},
		{"Figure4", func() (string, error) { r, err := Figure4(opt); return render(r, err) }},
		{"Figure5", func() (string, error) {
			r, err := Figure5(Options{Instructions: 30_000, Trials: 2})
			return render(r, err)
		}},
		{"Figure6", func() (string, error) { r, err := Figure6(opt); return render(r, err) }},
		{"Figure7", func() (string, error) { r, err := Figure7(opt); return render(r, err) }},
		{"ExtensionVictim", func() (string, error) { r, err := ExtensionVictim(opt); return render(r, err) }},
		{"ExtensionMultiStream", func() (string, error) { r, err := ExtensionMultiStream(opt); return render(r, err) }},
		{"ExtensionIssueWidth", func() (string, error) { r, err := ExtensionIssueWidth(opt); return render(r, err) }},
		{"ExtensionTLB", func() (string, error) { r, err := ExtensionTLB(opt); return render(r, err) }},
		{"ExtensionPlacement", func() (string, error) { r, err := ExtensionPlacement(opt); return render(r, err) }},
		{"ExtensionCML", func() (string, error) { r, err := ExtensionCML(opt); return render(r, err) }},
		{"ExtensionUnifiedL2", func() (string, error) { r, err := ExtensionUnifiedL2(opt); return render(r, err) }},
		{"ExtensionAssocLatency", func() (string, error) { r, err := ExtensionAssocLatency(opt); return render(r, err) }},
		{"ExtensionInterleave", func() (string, error) { r, err := ExtensionInterleave(opt); return render(r, err) }},
		{"ExtensionDualPort", func() (string, error) { r, err := ExtensionDualPort(opt); return render(r, err) }},
		{"SPECContrast", func() (string, error) { r, err := SPECContrast(opt); return render(r, err) }},
		{"AblationSubBlock", func() (string, error) { r, err := AblationSubBlock(opt); return render(r, err) }},
		{"AblationPagePolicy", func() (string, error) { r, err := AblationPagePolicy(opt); return render(r, err) }},
		{"AblationReplacement", func() (string, error) { r, err := AblationReplacement(opt); return render(r, err) }},
		{"AblationWriteBuffer", func() (string, error) { r, err := AblationWriteBuffer(opt); return render(r, err) }},
		{"MethodologyValidation", func() (string, error) { r, err := MethodologyValidation(opt); return render(r, err) }},
		{"SamplingStudy", func() (string, error) { r, err := SamplingStudy(opt); return render(r, err) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(out) < 80 || !strings.Contains(out, "\n") {
				t.Fatalf("%s rendered %d bytes — malformed:\n%s", c.name, len(out), out)
			}
		})
	}

	// Descriptive exhibits.
	if !strings.Contains(Table2(), "mpeg_play") {
		t.Error("Table2 missing workloads")
	}
	if !strings.Contains(Figure2(), "Kernel") {
		t.Error("Figure2 missing domains")
	}
}

// render normalizes the (result, error) pair of any experiment.
func render(r interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Rendering every paper exhibit leaves the shared store holding one run
// compaction per exhibit trace and nothing else: no spill, and idle bytes
// equal to those runs plus the checkpoint indexes their generation
// recorded.
func TestPaperExhibitsStoreHoldsRunsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every paper exhibit")
	}
	const n = 20_000
	synth.DefaultStore.Purge()
	defer synth.DefaultStore.Purge()
	for _, name := range ExhibitNames() {
		if _, err := RenderExhibit(name, Options{Instructions: n, Trials: 2}, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st := synth.DefaultStore.Stats()

	var profiles []synth.Profile
	profiles = append(profiles, synth.IBSMach()...)
	profiles = append(profiles, synth.IBSUltrix()...)
	profiles = append(profiles, synth.SPEC92()...)
	var runBytes int64
	for _, p := range profiles {
		runs, release, err := synth.DefaultStore.RunsOnly(context.Background(), p, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		runBytes += int64(len(runs)) * int64(unsafe.Sizeof(trace.Run{}))
		release()
	}
	if after := synth.DefaultStore.Stats(); after.Misses != st.Misses {
		t.Errorf("%d exhibit traces were not memoized as runs", after.Misses-st.Misses)
	}
	if st.Entries != len(profiles) || st.Spills != 0 || st.SpillBytes != 0 {
		t.Errorf("store holds %d entries and %d spill bytes, want the %d runs entries only", st.Entries, st.SpillBytes, len(profiles))
	}
	if st.IdleBytes != runBytes+st.CheckpointBytes {
		t.Errorf("idle bytes %d, want %d of runs plus %d of checkpoints", st.IdleBytes, runBytes, st.CheckpointBytes)
	}
}

// The published renders stay what a fresh run prints: paper_tables.txt is
// `ibstables -n 2000000 -q`, extension_tables.txt the extension studies at
// 1M instructions, each exhibit followed by a blank line. The check and
// benchmark scales (200k and 500k) cannot see a change that moves only a
// paper-scale value; this test can.
func TestPublishedRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every exhibit at paper scale")
	}
	defer synth.DefaultStore.Purge()
	for _, pub := range []struct {
		file  string
		names []string
		n     int64
	}{
		{"paper_tables.txt", ExhibitNames(), 2_000_000},
		{"extension_tables.txt", ExtensionNames(), 1_000_000},
	} {
		want, err := os.ReadFile(pub.file)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, name := range pub.names {
			out, err := RenderExhibit(name, Options{Instructions: pub.n}, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got.WriteString(out + "\n")
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got %q\nwant %q", pub.file, i+1, gotLines[i], wantLines[i])
			}
		}
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%s: rendered %d lines, file has %d", pub.file, len(gotLines), len(wantLines))
		}
	}
}
