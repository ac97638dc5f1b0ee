package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark keeps two clocks apart. Wall time is what a caller waits
// for; process CPU time (user+sys from getrusage) is what the program
// spends. On a virtual machine the hypervisor can take a core away
// ("steal"): that stretches wall time but not CPU time, so the CPU
// measures repeat where the wall measures do not.

// cpuTimes is the process's user and sys CPU so far.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// processCPU reads the process's CPU times. getrusage cannot fail for
// RUSAGE_SELF with a valid buffer, so an error is a bug.
func processCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, KiB on Linux)
// in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// userHZ is the tick rate of /proc/stat's counters (USER_HZ, 100 on
// every Linux architecture Go supports).
const userHZ = 100

// stealSeconds reads the host's cumulative steal time, summed over all
// CPUs, from /proc/stat. ok is false where the file or field is missing.
func stealSeconds() (float64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	return parseSteal(f)
}

// parseSteal extracts the steal column (the 8th value) of the aggregate
// "cpu" line.
func parseSteal(r io.Reader) (float64, bool) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			return 0, false
		}
		return float64(ticks) / userHZ, true
	}
	return 0, false
}

// probe is a snapshot of the noise sources a phase is measured against.
type probe struct {
	wall    time.Time
	cpu     cpuTimes
	steal   float64
	stealOK bool
	gcs     uint32
	pause   time.Duration
}

// snap takes a probe. It reads the GC statistics, which briefly stops the
// world, so it belongs at phase boundaries only.
func snap() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st, ok := stealSeconds()
	return probe{wall: time.Now(), cpu: processCPU(), steal: st, stealOK: ok,
		gcs: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// noise is what happened between two probes.
type noise struct {
	wall    time.Duration
	cpu     cpuTimes
	steal   float64
	stealOK bool
	gcs     uint32
	pause   time.Duration
}

func (p probe) until(q probe) noise {
	return noise{wall: q.wall.Sub(p.wall), cpu: q.cpu.sub(p.cpu), steal: q.steal - p.steal,
		stealOK: p.stealOK && q.stealOK, gcs: q.gcs - p.gcs, pause: q.pause - p.pause}
}

// String formats the diagnostics line of a phase.
func (n noise) String() string {
	steal := "n/a"
	if n.stealOK {
		steal = fmt.Sprintf("%.2fs", n.steal)
	}
	return fmt.Sprintf("wall %.3fs user %.3fs sys %.3fs host-steal %s gc %d cycles %.1fms pause",
		n.wall.Seconds(), n.cpu.user.Seconds(), n.cpu.sys.Seconds(), steal, n.gcs, float64(n.pause)/1e6)
}
