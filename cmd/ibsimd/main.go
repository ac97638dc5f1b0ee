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
	"flag"
	"fmt"
	"log"
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

func run(args []string) int {
	fs := flag.NewFlagSet("ibsimd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8347", "listen address")
		inflightMB  = fs.Int64("max-inflight-mb", 1024, "admission capacity: summed trace footprint of running requests, in MiB")
		maxQueue    = fs.Int("max-queue", 16, "admission wait-queue bound (0 sheds immediately)")
		timeout     = fs.Duration("timeout", 60*time.Second, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
		drain       = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		storeIdleMB = fs.Int64("store-idle-mb", 256, "trace store idle-cache budget, in MiB")
		storeHardMB = fs.Int64("store-hard-mb", 0, "trace store hard per-trace budget, in MiB (0 = unlimited; over-budget requests degrade to auto-sampled, then columnar-exact, then streamed)")
		maxInstr    = fs.Int64("max-instructions", 8_000_000, "per-request instruction cap (larger asks are clamped and marked degraded)")
		degradeWin  = fs.Duration("degrade-window", 250*time.Millisecond, "deadlines shorter than this get reduced-fidelity answers (0 disables)")
		quiet       = fs.Bool("q", false, "suppress operational logging")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	logger := log.New(os.Stderr, "ibsimd: ", log.LstdFlags)
	if *quiet {
		logger = log.New(discard{}, "", 0)
	}

	queue := *maxQueue
	if queue == 0 {
		queue = -1 // Config: negative disables the queue outright
	}
	window := *degradeWin
	if window == 0 {
		window = -1
	}
	cfg := server.Config{
		Store:            synth.NewStoreLimits(*storeIdleMB<<20, *storeHardMB<<20),
		MaxInflightBytes: *inflightMB << 20,
		MaxQueue:         queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DrainTimeout:     *drain,
		MaxInstructions:  *maxInstr,
		DegradeWindow:    window,
		Log:              logger,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibsimd: listen: %v\n", err)
		return 1
	}

	// SIGINT/SIGTERM begin the drain; a second signal aborts hard via the
	// default handler once the signal context is consumed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("serving on http://%s (capacity %d MiB, queue %d, timeout %v)",
		ln.Addr(), *inflightMB, *maxQueue, *timeout)
	if err := server.New(cfg).Run(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "ibsimd: %v\n", err)
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}

// discard is an io.Writer for -q.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
