// Command ibsimd serves the ibsim simulation library over HTTP as a
// hardened daemon: the sweep engine (POST /v1/sweep), the replay fan-out
// driver (POST /v1/replay), and every paper/extension exhibit
// (GET /v1/exhibit/{name}), with admission control, request deadlines,
// in-flight deduplication, graceful degradation, and a drain-on-SIGTERM
// shutdown. Liveness, readiness, and metrics are exposed on /healthz,
// /readyz, and /metrics.
//
// Exit codes: 0 after a clean drain, 1 on serve or configuration errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ibsim/internal/server"
	"ibsim/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseFlags parses and validates the command line into the listen address
// and the server configuration. A negative value, or a MiB budget whose byte
// count overflows int64, is an error naming the flag: no flag may silently
// fall back to its default or to "no budget". Zero keeps its documented
// meaning — unlimited for -store-hard-mb, shed at once for -max-queue,
// disabled for -degrade-window, the server default elsewhere.
func parseFlags(args []string) (addr string, cfg server.Config, err error) {
	fs := flag.NewFlagSet("ibsimd", flag.ContinueOnError)
	var (
		listen      = fs.String("addr", "127.0.0.1:8347", "listen address")
		inflightMB  = fs.Int64("max-inflight-mb", 1024, "admission capacity: summed trace footprint of running requests, in MiB")
		maxQueue    = fs.Int("max-queue", 16, "admission wait-queue bound (0 sheds immediately)")
		timeout     = fs.Duration("timeout", 60*time.Second, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
		drain       = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		storeIdleMB = fs.Int64("store-idle-mb", 256, "trace store idle-cache budget, in MiB")
		storeHardMB = fs.Int64("store-hard-mb", 0, "trace store hard per-trace budget, in MiB, charged against the run compaction (about 3.3 B per instruction on the IBS traces); 0 = unlimited; requests over it degrade to columnar-exact, then streamed")
		maxInstr    = fs.Int64("max-instructions", 8_000_000, "per-request instruction cap (larger asks are clamped and marked degraded)")
		degradeWin  = fs.Duration("degrade-window", 250*time.Millisecond, "deadlines shorter than this get reduced-fidelity answers (0 disables)")
		quiet       = fs.Bool("q", false, "suppress operational logging")
	)
	if err := fs.Parse(args); err != nil {
		return "", cfg, err
	}
	for _, f := range []struct {
		name string
		v    int64
		mib  bool // a MiB budget, shifted into a byte count
	}{
		{"max-inflight-mb", *inflightMB, true}, {"store-idle-mb", *storeIdleMB, true},
		{"store-hard-mb", *storeHardMB, true}, {"max-queue", int64(*maxQueue), false},
		{"max-instructions", *maxInstr, false}, {"timeout", int64(*timeout), false},
		{"max-timeout", int64(*maxTimeout), false}, {"drain-timeout", int64(*drain), false},
		{"degrade-window", int64(*degradeWin), false},
	} {
		switch {
		case f.v < 0:
			return "", cfg, &flagError{f.name, fs.Lookup(f.name).Value.String(), "must not be negative"}
		case f.mib && f.v > math.MaxInt64>>20:
			return "", cfg, &flagError{f.name, fs.Lookup(f.name).Value.String(), "overflows a byte count"}
		}
	}

	logger := log.New(os.Stderr, "ibsimd: ", log.LstdFlags)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}
	queue := *maxQueue
	if queue == 0 {
		queue = -1 // Config: negative disables the queue outright
	}
	window := *degradeWin
	if window == 0 {
		window = -1
	}
	return *listen, server.Config{
		Store:            synth.NewStoreLimits(*storeIdleMB<<20, *storeHardMB<<20),
		MaxInflightBytes: *inflightMB << 20,
		MaxQueue:         queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DrainTimeout:     *drain,
		MaxInstructions:  *maxInstr,
		DegradeWindow:    window,
		Log:              logger,
	}, nil
}

// flagError is a flag value parseFlags rejects.
type flagError struct {
	name, value, why string
}

func (e *flagError) Error() string {
	return fmt.Sprintf("-%s %s: %s", e.name, e.value, e.why)
}

func run(args []string) int {
	addr, cfg, err := parseFlags(args)
	if err != nil {
		// The flag package has already reported its own parse errors.
		var fe *flagError
		if errors.As(err, &fe) {
			fmt.Fprintf(os.Stderr, "ibsimd: %v\n", err)
		}
		return 1
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibsimd: listen: %v\n", err)
		return 1
	}

	// SIGINT/SIGTERM begin the drain; a second signal aborts hard via the
	// default handler once the signal context is consumed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg.Log.Printf("serving on http://%s (capacity %d MiB, queue %d, timeout %v)",
		ln.Addr(), cfg.MaxInflightBytes>>20, max(cfg.MaxQueue, 0), cfg.DefaultTimeout)
	if err := server.New(cfg).Run(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "ibsimd: %v\n", err)
		return 1
	}
	cfg.Log.Printf("drained cleanly")
	return 0
}
