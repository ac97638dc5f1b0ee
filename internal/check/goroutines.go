package check

import (
	"runtime"
	"time"
)

// TB is the minimal testing handle the goroutine-leak checker needs —
// satisfied by *testing.T and *testing.B without importing testing into
// non-test code.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// NoGoroutineLeak snapshots the live goroutine count and returns a function
// that asserts the count has returned to (or below) the baseline — the
// bracket to put around a server drain. Goroutines wind down asynchronously
// after a close returns, so the assertion polls briefly before declaring a
// leak; on failure it reports every live stack so the leaked goroutine is
// identifiable from the test log.
func NoGoroutineLeak(t TB) func() {
	t.Helper()
	baseline := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n <= baseline {
			return
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d live after shutdown, %d at baseline\n%s", n, baseline, buf)
	}
}
