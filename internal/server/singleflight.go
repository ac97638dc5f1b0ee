package server

import (
	"context"
	"sync"
)

// flightGroup deduplicates identical in-flight requests: the first caller
// of a key (the leader) executes the work, every concurrent caller of the
// same key (the followers) waits for the leader's response and shares it.
// The motivation is the paper's own workload shape — Figure 5's run-to-run
// variability means users re-request the same sweep/replay configurations
// repeatedly — so identical concurrent requests should cost one simulation,
// not N.
//
// Unlike a result cache, a flight lives only while its leader runs: the
// entry is removed before the response is published, so a completed
// request's next arrival recomputes (the synth trace store is the layer
// that memoizes across completions).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-flight execution.
type flight struct {
	done chan struct{}
	out  *response
}

// response is the materialized outcome of one execution, shareable between
// the leader and any number of followers.
type response struct {
	status     int
	body       []byte
	retryAfter int  // seconds; 0 = no Retry-After header
	canceled   bool // the leader's own client vanished mid-flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// do executes fn under key, deduplicating concurrent callers. The boolean
// reports leadership. A follower whose ctx expires first returns ctx.Err()
// with a nil response. fn must not panic (the server wraps it in a
// recoverer that converts panics into structured 500 responses).
func (g *flightGroup) do(ctx context.Context, key string, fn func() *response) (*response, bool, error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.out, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.out = fn()

	// Unpublish before signalling: a caller arriving after this point
	// starts a fresh flight instead of reading a finished one.
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.out, true, nil
}
