package replay

import (
	"context"
	"errors"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// testTrace builds a sequential-heavy instruction stream.
func testTrace(seed uint64, n int) []trace.Ref {
	rng := xrand.New(seed)
	refs := make([]trace.Ref, n)
	addr := uint64(0x4000)
	for i := range refs {
		refs[i] = trace.Ref{Addr: addr, Kind: trace.IFetch}
		if rng.Bool(0.1) {
			addr = rng.Uint64n(1<<17) &^ 3
		} else {
			addr += trace.InstrBytes
		}
	}
	return refs
}

// bank builds a mixed engine bank: a bandwidth sweep of analytic blocking
// engines sharing one geometry (exercising the dedup), plus prefetching,
// sector, bypass, and stream engines that must be simulated individually.
func bank(t testing.TB) []fetch.Engine {
	t.Helper()
	base := cache.Config{Size: 16384, LineSize: 32, Assoc: 1}
	var engines []fetch.Engine
	for _, bw := range []int{4, 8, 16, 32} {
		e, err := fetch.NewBlocking(base, memsys.Transfer{Latency: 6, BytesPerCycle: bw}, 0)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	pf, err := fetch.NewBlocking(base, link, 3)
	if err != nil {
		t.Fatal(err)
	}
	sector, err := fetch.NewBlocking(cache.Config{Size: 16384, LineSize: 64, Assoc: 1, SubBlock: 16}, link, 0)
	if err != nil {
		t.Fatal(err)
	}
	by, err := fetch.NewBypass(base, link, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fetch.NewStream(cache.Config{Size: 16384, LineSize: 16, Assoc: 1}, link, 6)
	if err != nil {
		t.Fatal(err)
	}
	return append(engines, pf, sector, by, st)
}

// The fan-out bank must reproduce, cell for cell, what per-config fetch.Run
// produces — including the cells reconstructed analytically.
func TestReplayMatchesPerConfig(t *testing.T) {
	refs := testTrace(1, 50000)
	runs := trace.Compact(refs)

	fanout := bank(t)
	got, err := Replay(context.Background(), runs, fanout)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want := make([]fetch.Result, len(fanout))
	for i, e := range bank(t) {
		want[i] = fetch.Run(e, refs)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("engine %d (%T): fan-out %+v != per-config %+v", i, fanout[i], got[i], want[i])
		}
	}
}

// An engine without a bulk path still replays correctly (per-instruction
// fetches inside the driver loop).
type plainEngine struct{ inner *fetch.Blocking }

func (p *plainEngine) Fetch(addr uint64)    { p.inner.Fetch(addr) }
func (p *plainEngine) Result() fetch.Result { return p.inner.Result() }

func TestReplayNonBulkEngine(t *testing.T) {
	refs := testTrace(3, 20000)
	cfg := cache.Config{Size: 8192, LineSize: 16, Assoc: 2}
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	a, _ := fetch.NewBlocking(cfg, link, 1)
	b, _ := fetch.NewBlocking(cfg, link, 1)
	got, err := Replay(context.Background(), trace.Compact(refs), []fetch.Engine{&plainEngine{inner: a}})
	if err != nil {
		t.Fatal(err)
	}
	if want := fetch.Run(b, refs); got[0] != want {
		t.Fatalf("plain engine: %+v != %+v", got[0], want)
	}
}

// A canceled context aborts the fan-out with ctx.Err().
func TestReplayCancellation(t *testing.T) {
	refs := testTrace(4, 50000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Replay(ctx, trace.Compact(refs), bank(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// An empty bank and an empty trace are fine.
func TestReplayDegenerate(t *testing.T) {
	if res, err := Replay(context.Background(), nil, nil); err != nil || len(res) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	res, err := Replay(context.Background(), nil, bank(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r != (fetch.Result{}) {
			t.Errorf("engine %d on empty trace: %+v", i, r)
		}
	}
}
