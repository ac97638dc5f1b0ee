package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"ibsim/internal/synth"
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
	// A bad value exits before the listener opens: on a usable address the
	// daemon would otherwise serve until signalled.
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-addr", "127.0.0.1:0", "-q", "-store-hard-mb", "-1"}) }()
	select {
	case code := <-exit:
		if code != 1 {
			t.Fatalf("exit = %d, want 1 for a negative -store-hard-mb", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon served with a negative -store-hard-mb instead of exiting 1")
	}
}

// Every numeric flag rejects a value it cannot mean, naming the flag,
// instead of silently serving with its default or with no budget at all.
func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"store-hard-mb", "-1"},
		{"store-hard-mb", "9000000000000"}, // wraps negative when shifted to bytes
		{"store-idle-mb", "-1"},
		{"store-idle-mb", "9000000000000"},
		{"max-inflight-mb", "-1"},
		{"max-inflight-mb", "9000000000000"},
		{"max-queue", "-1"},
		{"max-instructions", "-1"},
		{"timeout", "-1s"},
		{"max-timeout", "-1s"},
		{"drain-timeout", "-1s"},
		{"degrade-window", "-1s"},
	} {
		_, _, err := parseFlags([]string{"-" + tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), "-"+tc.flag+" ") {
			t.Errorf("-%s %s: err = %v, want an error naming the flag", tc.flag, tc.value, err)
		}
	}
}

// Zero keeps its documented meaning, and the MiB budgets reach the store
// and the admission limiter as byte counts.
func TestParseFlagsBudgets(t *testing.T) {
	prof, err := synth.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400_000 // about 1.4 MB of runs: over a 1 MiB budget, under 2 MiB
	for _, tc := range []struct {
		hardMB     string
		overBudget bool
	}{{"0", false}, {"1", true}, {"2", false}} {
		_, cfg, err := parseFlags([]string{"-q", "-store-hard-mb", tc.hardMB})
		if err != nil {
			t.Fatalf("-store-hard-mb %s: %v", tc.hardMB, err)
		}
		runs, release, err := cfg.Store.RunsOnly(context.Background(), prof, 0, n)
		if got := errors.Is(err, synth.ErrOverBudget); got != tc.overBudget {
			t.Errorf("-store-hard-mb %s: runs of %d instructions over budget = %v (err %v), want %v", tc.hardMB, n, got, err, tc.overBudget)
		}
		if err == nil {
			if b := len(runs) * 24; b <= 1<<20 || b > 2<<20 {
				t.Errorf("gcc's %d instructions compact to %d bytes of runs, not between 1 and 2 MiB", n, b)
			}
			release()
		}
	}
	_, c, err := parseFlags([]string{"-q", "-max-inflight-mb", "3", "-max-queue", "0", "-degrade-window", "0", "-timeout", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxInflightBytes != 3<<20 || c.MaxQueue >= 0 || c.DegradeWindow >= 0 || c.DefaultTimeout != 0 {
		t.Errorf("config %+v: want 3 MiB capacity, no queue, no degrade window, the default timeout", c)
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
