package manifest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := Params{Instructions: 1000, Trials: 5}
	m, resumed, err := Open(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("fresh manifest resumed %d exhibits", resumed)
	}
	if _, ok := m.Get("table1"); ok {
		t.Fatal("Get on an empty manifest succeeded")
	}
	if err := m.Put("table1", "row row row\n"); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Get("table1")
	if !ok || got != "row row row\n" {
		t.Fatalf("Get = %q, %v", got, ok)
	}

	// A fresh Open with the same params resumes the entry.
	m2, resumed, err := Open(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed = %d, want 1", resumed)
	}
	if got, ok := m2.Get("table1"); !ok || got != "row row row\n" {
		t.Fatalf("resumed Get = %q, %v", got, ok)
	}
}

func TestParamsMismatchDiscardsCache(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, Params{Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("table1", "stale"); err != nil {
		t.Fatal(err)
	}
	m2, resumed, err := Open(dir, Params{Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || m2.Len() != 0 {
		t.Fatalf("different params resumed %d exhibits", resumed)
	}
	if _, ok := m2.Get("table1"); ok {
		t.Fatal("different-params manifest served a stale output")
	}
}

func TestCorruptedOutputNotServed(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("figure1", "good bytes"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "figure1.out"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, _, err := Open(dir, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Get("figure1"); ok {
		t.Fatal("corrupted output served from cache")
	}
}

func TestCorruptIndexStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, resumed, err := Open(dir, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || m.Len() != 0 {
		t.Fatal("corrupt index resumed exhibits")
	}
}

func TestInvalidExhibitNameRejected(t *testing.T) {
	m, _, err := Open(t.TempDir(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../evil", "a/b", `a\b`} {
		if err := m.Put(name, "x"); err == nil || !strings.Contains(err.Error(), "invalid exhibit name") {
			t.Fatalf("Put(%q) = %v, want invalid-name error", name, err)
		}
	}
}
