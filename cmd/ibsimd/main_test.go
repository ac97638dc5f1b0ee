package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ibsim/internal/server"
)

// pickAddr grabs a free loopback address by binding and releasing it.
func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// simRequests reads the simulation-request counter off /metrics.
func simRequests(base string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var m map[string]any
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return -1
	}
	n, _ := m["requests_total"].(float64)
	return n
}

// ready reports whether GET /readyz answers 200.
func ready(base string) bool {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// decodeOK decodes a 200 response into out; any other status is an error
// carrying the structured body.
func decodeOK(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb server.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb) // detail only: the status already fails the call
		return fmt.Errorf("status %d: %+v", resp.StatusCode, eb.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// The daemon starts, serves, and drains cleanly on SIGTERM while a
// request is in flight — the end-to-end shutdown contract.
func TestDaemonServesAndDrainsOnSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live daemon")
	}
	addr := pickAddr(t)

	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", addr, "-q", "-drain-timeout", "10s"})
	}()

	base := "http://" + addr
	waitUntil(t, 10*time.Second, func() bool { return ready(base) })

	// Normal traffic works.
	get, err := http.Get(base + "/v1/exhibit/table2")
	if err != nil {
		t.Fatal(err)
	}
	var resp server.ExhibitResponse
	if err := decodeOK(get, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Table 2") {
		t.Fatalf("unexpected exhibit text: %.80s", resp.Text)
	}

	// Start a real simulation request, wait (via /metrics) until the
	// server has accepted it, then SIGTERM mid-flight: the request must
	// still complete and the daemon must exit 0.
	before := simRequests(base)
	var wg sync.WaitGroup
	var sweepErr error
	var sweepResp server.SweepResponse
	body, err := json.Marshal(server.SweepRequest{
		Workload: "eqntott", Instructions: 400_000, LineSize: 32,
		Cells: []server.CellSpec{{Sets: 256, Assoc: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		post, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			sweepErr = err
			return
		}
		sweepErr = decodeOK(post, &sweepResp)
	}()
	waitUntil(t, 10*time.Second, func() bool { return simRequests(base) > before })
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	if sweepErr != nil {
		t.Fatalf("in-flight sweep failed during drain: %v", sweepErr)
	}
	if sweepResp.Accesses == 0 {
		t.Fatal("in-flight sweep returned an empty result")
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d, want 0 after clean drain", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after drain")
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	if code := run([]string{"-addr", "not an address", "-q"}); code != 1 {
		t.Fatalf("exit = %d, want 1 for an unusable listen address", code)
	}
	if code := run([]string{"-no-such-flag"}); code != 1 {
		t.Fatalf("exit = %d, want 1 for unknown flags", code)
	}
}

// waitUntil polls cond up to the deadline.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
