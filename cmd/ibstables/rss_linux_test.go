// The race detector's shadow memory multiplies RSS, so the bound holds only
// for a plain build.

//go:build linux && !race

package main

import (
	"bytes"
	"io"
	"syscall"
	"testing"
)

// All 15 paper exhibits at 500k instructions per workload peak under 128
// MiB: the shared store keeps each trace as its run compaction, about 3
// bytes per instruction. When it also held every trace's references, 16
// bytes per instruction, the same run peaked near 250 MiB.
func TestPaperExhibitsPeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every paper exhibit at 500k instructions")
	}
	const limitMiB = 128
	cmd := selfCmd(t, "-n", "500000", "-q")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ibstables -n 500000 -q: %v\n%s", err, stderr.String())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		t.Fatal("no resource usage for the finished process")
	}
	peak := float64(ru.Maxrss) / 1024 // Linux reports KiB
	t.Logf("peak RSS %.1f MiB", peak)
	if peak >= limitMiB {
		t.Fatalf("peak RSS %.1f MiB, want under %d MiB", peak, limitMiB)
	}
}
