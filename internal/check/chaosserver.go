package check

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ibsim/internal/fault"
	"ibsim/internal/server"
	"ibsim/internal/synth"
)

// The server chaos scenarios drive a live in-process ibsimd service
// (internal/server) through its failure modes — a slow-loris request body,
// mid-request client cancellation, a store over its hard budget, and a
// handler panic — and assert the hardened-service contract: the daemon
// never crashes, failures surface as structured errors or explicitly
// degraded responses, and the server keeps answering afterwards.

// liveServer is one in-process server on a loopback listener.
type liveServer struct {
	srv   *server.Server
	hs    *http.Server
	store *synth.Store // the store it was started with, purged on stop
	base  string
	done  chan error
}

// startServer boots an in-process server over its own store (cfg.Store
// must be set). The caller must call stop.
func startServer(cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	srv := server.New(cfg)
	hs := &http.Server{
		Handler: srv.Handler(),
		// Tight read deadline so a slow-loris peer is cut off quickly.
		ReadTimeout:       500 * time.Millisecond,
		ReadHeaderTimeout: 500 * time.Millisecond,
	}
	ls := &liveServer{srv: srv, hs: hs, store: cfg.Store, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- hs.Serve(ln) }()
	return ls, nil
}

// stop drains the server, then purges its store: memoized traces and the
// spill directory an over-budget request created.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
	ls.store.Purge()
}

// sweepBody builds a small sweep request body.
func sweepBody(workload string, n int64) []byte {
	body, _ := json.Marshal(server.SweepRequest{
		Workload:     workload,
		Instructions: n,
		LineSize:     32,
		Cells:        []server.CellSpec{{Sets: 64, Assoc: 1}, {Sets: 256, Assoc: 2}},
	})
	return body
}

// postSweep posts body to the server and returns status plus decoded
// response or error envelope.
func postSweep(base string, body []byte) (int, *server.SweepResponse, *server.ErrorBody, error) {
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, nil, err
	}
	if resp.StatusCode == http.StatusOK {
		var sr server.SweepResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return resp.StatusCode, nil, nil, fmt.Errorf("bad 200 body %q: %w", raw, err)
		}
		return resp.StatusCode, &sr, nil, nil
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		return resp.StatusCode, nil, nil, fmt.Errorf("unstructured %d body %q", resp.StatusCode, raw)
	}
	return resp.StatusCode, nil, &eb, nil
}

// chaosServerSlowLoris feeds the server a request body that dribbles in a
// byte at a time (fault.Plan{ShortIO, Delay}): the read deadline must cut
// the peer off without taking the daemon down, and a well-behaved request
// must succeed immediately afterwards.
func chaosServerSlowLoris(opt Options) (string, error) {
	prof := opt.Workloads[0]
	ls, err := startServer(server.Config{Store: synth.NewStore(1 << 24)})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer ls.stop()

	body := sweepBody(prof.Name, 20_000)
	// ~1 byte per 25ms against a 500ms read deadline: the server must
	// sever the connection long before the body completes.
	loris := fault.NewReader(bytes.NewReader(body), fault.Plan{
		ShortIO: true, Delay: 25 * time.Millisecond, Seed: opt.Seed,
	})
	req, err := http.NewRequest(http.MethodPost, ls.base+"/v1/sweep", io.NopCloser(loris))
	if err != nil {
		return "", Failf("building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return "", Failf("slow-loris body produced a 200")
		}
	}
	// Either outcome — severed connection (err != nil) or an HTTP error
	// status — is acceptable; crashing or hanging is not. Prove the
	// server survived by completing a normal request.
	code, sr, eb, err := postSweep(ls.base, body)
	if err != nil {
		return "", Failf("server unreachable after slow-loris: %v", err)
	}
	if code != http.StatusOK || sr == nil {
		return "", Failf("healthy request after slow-loris = %d (%+v)", code, eb)
	}
	return fmt.Sprintf("slow peer cut off; healthy request then returned %d cells", len(sr.Cells)), nil
}

// chaosServerCancel cancels a request mid-simulation: the server must
// absorb the disconnect (no crash, capacity released) and keep serving.
func chaosServerCancel(opt Options) (string, error) {
	prof := opt.Workloads[0]
	entered := make(chan struct{}, 8)
	var inHook atomic.Bool
	ls, err := startServer(server.Config{
		Store: synth.NewStore(1 << 24),
		FaultHook: func(string) {
			if inHook.CompareAndSwap(false, true) {
				entered <- struct{}{}
				// Hold the request long enough for the client to vanish.
				time.Sleep(150 * time.Millisecond)
			}
		},
	})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer ls.stop()

	body := sweepBody(prof.Name, 20_000)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ls.base+"/v1/sweep", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		cancel()
		return "", Failf("request never reached the simulation stage")
	}
	cancel() // client walks away mid-flight
	if err := <-errc; err == nil {
		return "", Failf("cancelled request completed as if nothing happened")
	}

	// The server must have survived and released the admitted capacity.
	deadline := time.Now().Add(10 * time.Second)
	for ls.srv.InflightBytes() != 0 {
		if time.Now().After(deadline) {
			return "", Failf("admitted capacity never released after cancellation: %d bytes", ls.srv.InflightBytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, sr, eb, err := postSweep(ls.base, body)
	if err != nil || code != http.StatusOK || sr == nil {
		return "", Failf("request after cancellation = %d (%+v, err %v)", code, eb, err)
	}
	return fmt.Sprintf("mid-flight disconnect absorbed, capacity released, server kept serving"), nil
}

// chaosServerOverBudget runs the server against a store whose hard budget
// rejects every materialization: responses must arrive degraded — explicit
// marker, explanation — and numerically identical to the materialized path.
func chaosServerOverBudget(opt Options) (string, error) {
	prof := opt.Workloads[0]
	degraded, err := startServer(server.Config{Store: synth.NewStoreLimits(0, 64)})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer degraded.stop()
	healthy, err := startServer(server.Config{Store: synth.NewStore(1 << 24)})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer healthy.stop()

	body := sweepBody(prof.Name, 20_000)
	code, dresp, eb, err := postSweep(degraded.base, body)
	if err != nil || code != http.StatusOK || dresp == nil {
		return "", Failf("over-budget sweep = %d (%+v, err %v), want degraded 200", code, eb, err)
	}
	if !dresp.Degraded || dresp.DegradedReason == "" {
		return "", Failf("over-budget response not marked degraded: %+v", dresp)
	}
	code, href, _, err := postSweep(healthy.base, body)
	if err != nil || code != http.StatusOK || href == nil {
		return "", Failf("healthy sweep failed: %d, %v", code, err)
	}
	if href.Degraded {
		return "", Failf("healthy server answered degraded")
	}
	if len(dresp.Cells) != len(href.Cells) {
		return "", Failf("cell counts differ: %d vs %d", len(dresp.Cells), len(href.Cells))
	}
	for i := range href.Cells {
		if dresp.Cells[i].Misses != href.Cells[i].Misses {
			return "", Failf("cell %d: streamed %d misses, materialized %d", i, dresp.Cells[i].Misses, href.Cells[i].Misses)
		}
	}
	return fmt.Sprintf("over-budget store degraded to streaming with identical miss counts"), nil
}

// chaosServerPanic injects a panic into the request path: the response
// must be a structured 500 (kind "panic") and the daemon must keep
// serving.
func chaosServerPanic(opt Options) (string, error) {
	prof := opt.Workloads[0]
	var arm atomic.Bool
	arm.Store(true)
	ls, err := startServer(server.Config{
		Store: synth.NewStore(1 << 24),
		FaultHook: func(string) {
			if arm.CompareAndSwap(true, false) {
				panic("chaos: injected handler panic")
			}
		},
	})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer ls.stop()

	body := sweepBody(prof.Name, 20_000)
	code, _, eb, err := postSweep(ls.base, body)
	if err != nil {
		return "", Failf("panicking request severed the connection: %v", err)
	}
	if code != http.StatusInternalServerError || eb == nil {
		return "", Failf("panic surfaced as %d, want structured 500", code)
	}
	if eb.Error.Kind != "panic" {
		return "", Failf("error kind = %q, want \"panic\"", eb.Error.Kind)
	}
	if !strings.Contains(eb.Error.Message, "injected handler panic") {
		return "", Failf("panic payload lost: %q", eb.Error.Message)
	}
	code, sr, _, err := postSweep(ls.base, body)
	if err != nil || code != http.StatusOK || sr == nil {
		return "", Failf("request after panic = %d (err %v), want 200", code, err)
	}
	return fmt.Sprintf("handler panic isolated to a structured 500; daemon kept serving"), nil
}

// chaosServerRunsTier proves the degradation ladder's ORDER: a store that
// cannot hold the ref trace but can hold its run compaction must answer
// exactly from the runs (not degraded, no sampling block, the same numbers
// as an unlimited store), and only a store too small for even the runs may
// fall to the streaming tier below it — still exactly.
func chaosServerRunsTier(opt Options) (string, error) {
	prof := opt.Workloads[0]
	const n = 20_000
	// Budgets bracketing the run compaction: refs need n*16 = 320 KB, the
	// compacted runs a few tens of KB.
	mid, err := startServer(server.Config{Store: synth.NewStoreLimits(0, 1<<17)})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer mid.stop()
	tiny, err := startServer(server.Config{Store: synth.NewStoreLimits(0, 1<<10)})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer tiny.stop()
	healthy, err := startServer(server.Config{Store: synth.NewStore(1 << 24)})
	if err != nil {
		return "", Failf("%v", err)
	}
	defer healthy.stop()

	body := sweepBody(prof.Name, n)
	code, exact, _, err := postSweep(healthy.base, body)
	if err != nil || code != http.StatusOK || exact == nil {
		return "", Failf("healthy sweep = %d (err %v), want 200", code, err)
	}

	code, mresp, eb, err := postSweep(mid.base, body)
	if err != nil || code != http.StatusOK || mresp == nil {
		return "", Failf("mid-budget sweep = %d (%+v, err %v), want exact 200", code, eb, err)
	}
	switch {
	case mresp.Degraded:
		return "", Failf("mid-budget answer degraded (reason %q); the runs fit the budget", mresp.DegradedReason)
	case mresp.Sampling != nil:
		return "", Failf("mid-budget answer sampled (%+v); no sampling was asked for", mresp.Sampling)
	case mresp.Accesses != exact.Accesses || len(mresp.Cells) != len(exact.Cells):
		return "", Failf("mid-budget answer covers %d accesses in %d cells, healthy %d in %d",
			mresp.Accesses, len(mresp.Cells), exact.Accesses, len(exact.Cells))
	}
	for i := range exact.Cells {
		if mresp.Cells[i] != exact.Cells[i] {
			return "", Failf("mid-budget cell %d: %+v, healthy %+v", i, mresp.Cells[i], exact.Cells[i])
		}
	}

	code, tresp, eb, err := postSweep(tiny.base, body)
	if err != nil || code != http.StatusOK || tresp == nil {
		return "", Failf("tiny-budget sweep = %d (%+v, err %v), want streamed 200", code, eb, err)
	}
	if tresp.Sampling != nil {
		return "", Failf("tiny-budget store sampled; runs over budget must stream exactly")
	}
	if !tresp.Degraded || !strings.Contains(tresp.DegradedReason, "stream") {
		return "", Failf("tiny-budget reason %q, want streaming fallback", tresp.DegradedReason)
	}
	for i := range exact.Cells {
		if tresp.Cells[i].Misses != exact.Cells[i].Misses {
			return "", Failf("streamed cell %d: %d misses, exact %d", i, tresp.Cells[i].Misses, exact.Cells[i].Misses)
		}
	}
	return fmt.Sprintf("runs tier answered exactly within a budget below the refs (%d cells match); streamed exactly below it", len(exact.Cells)), nil
}
