package main

import (
	"os"
	"path/filepath"
	"testing"

	"ibsim"
)

func TestGenerateAndInfo(t *testing.T) {
	w, err := ibsim.LoadWorkload("nroff")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nroff.ibstrace")
	if err := generate(w, 20_000, path, false); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 1000 {
		t.Fatalf("trace file only %d bytes", st.Size())
	}
	if err := printInfo(path); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateAndInfoColumnar(t *testing.T) {
	w, err := ibsim.LoadWorkload("nroff")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nroff.ibsc")
	if err := generate(w, 20_000, path, true); err != nil {
		t.Fatal(err)
	}
	columnar, err := ibsim.IsColumnarTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !columnar {
		t.Fatal("generated file does not sniff as columnar")
	}
	cf, err := ibsim.OpenColumnarTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Refs() != 20_000 {
		t.Fatalf("columnar file holds %d refs, want 20000", cf.Refs())
	}
	cf.Close()
	if err := printInfo(path); err != nil {
		t.Fatal(err)
	}
}

func TestPrintInfoMissingFile(t *testing.T) {
	if err := printInfo(filepath.Join(t.TempDir(), "nope.ibstrace")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGenerateBadPath(t *testing.T) {
	w, _ := ibsim.LoadWorkload("nroff")
	if err := generate(w, 1000, filepath.Join(t.TempDir(), "no", "such", "dir", "x.ibstrace"), false); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
