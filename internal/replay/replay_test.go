package replay

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// bank builds a mixed engine bank whose content classes have several
// members: a bandwidth sweep of prefetch-free blocking engines led by a
// Bypass(g, 0) that also carries a Stream(g, 4); Bypass(g, 3) leading
// Blocking(g, 3); a leaderless class of stream engines at depths 0 to 65
// beside blocking engines on two links; 2-way LRU and 4-way FIFO classes;
// and engines that run whole — a sector cache, a lone Bypass(g, 2), and a
// second Bypass in each associative 2-line class.
func bank(t testing.TB) []fetch.Engine {
	t.Helper()
	var engines []fetch.Engine
	add := func(e fetch.Engine, err error) {
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	base := cache.Config{Size: 16384, LineSize: 32, Assoc: 1}
	line16 := cache.Config{Size: 16384, LineSize: 16, Assoc: 1}
	lru2 := cache.Config{Size: 8192, LineSize: 16, Assoc: 2}
	fifo4 := cache.Config{Size: 4096, LineSize: 16, Assoc: 4, Replacement: cache.FIFO}
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	slow := memsys.Transfer{Latency: 30, BytesPerCycle: 8}
	for _, bw := range []int{4, 8, 16, 32} {
		add(fetch.NewBlocking(base, memsys.Transfer{Latency: 6, BytesPerCycle: bw}, 0))
	}
	add(fetch.NewBlocking(base, link, 3))
	add(fetch.NewBlocking(cache.Config{Size: 16384, LineSize: 64, Assoc: 1, SubBlock: 16}, link, 0))
	add(fetch.NewBypass(base, link, 2))
	add(fetch.NewBypass(base, link, 3))
	add(fetch.NewStream(base, link, 4))
	add(fetch.NewBypass(base, slow, 0))
	for _, d := range []int{0, 1, 6, 18, 65} {
		add(fetch.NewStream(line16, link, d))
	}
	add(fetch.NewBlocking(line16, link, 0))
	add(fetch.NewBlocking(line16, slow, 0))
	for _, g := range []cache.Config{lru2, fifo4} {
		add(fetch.NewBlocking(g, slow, 0))
		add(fetch.NewStream(g, link, 6))
		add(fetch.NewBlocking(g, link, 1))
		add(fetch.NewBypass(g, link, 1))
		add(fetch.NewBypass(g, slow, 1))
	}
	return engines
}

// The bank's lanes: one per content class (its pass — a Bypass member or
// else the first member's Filter — plus the members timed from it) and one
// per engine that runs whole.
func TestPlanBankClasses(t *testing.T) {
	lanes := planBank(bank(t))
	var leaders []string
	members := 0
	for _, l := range lanes {
		leaders = append(leaders, fmt.Sprintf("%T/%d", l.e, len(l.members)))
		members += len(l.members)
	}
	// base/1 line (Bypass-led: 4 blocking + stream + bypass), base/4 lines
	// (Bypass-led), sector (whole), base/3 lines (lone Bypass), line16/1
	// (Filter: 5 streams + 2 blocking), and per associative geometry a
	// 1-line Filter class (blocking + stream), a Bypass-led 2-line class,
	// and its second Bypass running whole.
	want := []string{
		"*fetch.Bypass/6", "*fetch.Bypass/2", "*fetch.Blocking/1", "*fetch.Bypass/1", "*fetch.Filter/7",
		"*fetch.Filter/2", "*fetch.Bypass/2", "*fetch.Bypass/1",
		"*fetch.Filter/2", "*fetch.Bypass/2", "*fetch.Bypass/1",
	}
	if !reflect.DeepEqual(leaders, want) || members != len(bank(t)) {
		t.Fatalf("lanes %v (%d members), want %v", leaders, members, want)
	}
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

// An engine outside every content class whose FetchRuns issues single
// fetches runs whole in its own lane and still replays correctly.
type plainEngine struct{ inner *fetch.Blocking }

func (p *plainEngine) Fetch(addr uint64) { p.inner.Fetch(addr) }
func (p *plainEngine) FetchRuns(runs []trace.Run) {
	for _, r := range runs {
		for i := int64(0); i < r.Len; i++ {
			p.Fetch(r.Start + uint64(i)*trace.InstrBytes)
		}
	}
}
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
