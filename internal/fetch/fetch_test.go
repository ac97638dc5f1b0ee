package fetch

import (
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

var (
	l1cfg  = cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
	l2link = memsys.Transfer{Latency: 6, BytesPerCycle: 16}
)

// seq builds an instruction stream of sequential fetches starting at base.
func seq(base uint64, n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: base + uint64(i)*4, Kind: trace.IFetch}
	}
	return refs
}

func TestResultRatios(t *testing.T) {
	r := Result{Instructions: 200, Misses: 10, StallCycles: 70}
	if r.CPIinstr() != 0.35 {
		t.Errorf("CPIinstr = %v", r.CPIinstr())
	}
	if r.MPI() != 0.05 {
		t.Errorf("MPI = %v", r.MPI())
	}
	var zero Result
	if zero.CPIinstr() != 0 || zero.MPI() != 0 {
		t.Error("zero result ratios non-zero")
	}
}

func TestBlockingStallPerMiss(t *testing.T) {
	// 32-byte lines over a 6-cycle, 16 B/cyc link: each miss stalls
	// 6+2-1 = 7 cycles (the Figure 3 model).
	e, err := NewBlocking(l1cfg, l2link, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(e, seq(0, 8)) // 8 instructions, one line: 1 miss
	if res.Misses != 1 {
		t.Fatalf("misses = %d", res.Misses)
	}
	if res.StallCycles != 7 {
		t.Fatalf("stall = %d, want 7", res.StallCycles)
	}
	if res.Instructions != 8 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}

func TestBlockingPrefetchReducesSequentialMisses(t *testing.T) {
	// A long sequential run: with N=3 prefetch, misses drop ~4x.
	base, _ := NewBlocking(l1cfg, l2link, 0)
	pf, _ := NewBlocking(l1cfg, l2link, 3)
	stream := seq(0, 2048)
	r0 := Run(base, stream)
	r3 := Run(pf, stream)
	if r3.Misses*3 > r0.Misses {
		t.Fatalf("prefetch misses %d vs base %d — expected ~4x fewer", r3.Misses, r0.Misses)
	}
	// Each prefetching miss stalls longer (must wait for all 4 lines:
	// 6 + 8 - 1 = 13), but total stall should still drop on sequential code.
	if r3.StallCycles >= r0.StallCycles {
		t.Fatalf("prefetch stall %d did not beat base %d", r3.StallCycles, r0.StallCycles)
	}
}

func TestBlockingPrefetchStall(t *testing.T) {
	// With N=1 (two 32-byte lines = 64 bytes): stall = 6+4-1 = 9.
	e, _ := NewBlocking(l1cfg, l2link, 1)
	res := Run(e, seq(0, 1))
	if res.StallCycles != 9 {
		t.Fatalf("stall = %d, want 9", res.StallCycles)
	}
	// The prefetched line is now resident.
	e.Fetch(32)
	if got := e.Result(); got.Misses != 1 {
		t.Fatalf("prefetched line missed: %+v", got)
	}
}

func TestBypassResumesOnMissingWord(t *testing.T) {
	// Missing word at line offset 0: processor resumes after the first
	// 16-byte chunk arrives (6 cycles), not after the full line (7).
	e, err := NewBypass(l1cfg, l2link, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Fetch(0)
	if got := e.Result().StallCycles; got != 6 {
		t.Fatalf("stall = %d, want 6", got)
	}
	// Word in the second chunk (offset 16) arrives one cycle later.
	e2, _ := NewBypass(l1cfg, l2link, 0)
	e2.Fetch(16)
	if got := e2.Result().StallCycles; got != 7 {
		t.Fatalf("offset-16 stall = %d, want 7", got)
	}
}

func TestBypassWaitsForInFlightWords(t *testing.T) {
	// Narrow link (4 B/cyc): after a miss at 0 the processor resumes when
	// word 0 arrives, but the last word of the line (offset 28) lands 7
	// cycles later — fetching it immediately must wait, not get it free.
	slow := memsys.Transfer{Latency: 6, BytesPerCycle: 4}
	e, _ := NewBypass(l1cfg, slow, 0)
	e.Fetch(0) // miss at cycle 1: word 0 arrives at 1+6=7 → stall 6
	if got := e.Result().StallCycles; got != 6 {
		t.Fatalf("first stall = %d, want 6", got)
	}
	e.Fetch(28) // now = 8; offset 28 arrives at 1+6+7 = 14 → stall 6 more
	if got := e.Result().StallCycles; got != 12 {
		t.Fatalf("in-flight word wait: stall = %d, want 12", got)
	}
}

func TestBypassBeatsBlockingOnRealisticStream(t *testing.T) {
	// On a stream with misses at varied line offsets, bypass strictly
	// reduces stall time (Table 7's point).
	var refs []trace.Ref
	// Jumpy pattern: short runs starting at varying offsets of distinct lines.
	addr := uint64(0)
	for i := 0; i < 4000; i++ {
		refs = append(refs, trace.Ref{Addr: addr, Kind: trace.IFetch})
		if i%5 == 4 {
			addr = (addr + 4096 + uint64(i%7)*20) % (1 << 20)
			addr &^= 3
		} else {
			addr += 4
		}
	}
	blocking, _ := NewBlocking(l1cfg, l2link, 1)
	bypass, _ := NewBypass(l1cfg, l2link, 1)
	rb := Run(blocking, refs)
	rp := Run(bypass, refs)
	if rp.StallCycles >= rb.StallCycles {
		t.Fatalf("bypass stall %d >= blocking stall %d", rp.StallCycles, rb.StallCycles)
	}
}

func TestStreamLineSizeGuard(t *testing.T) {
	if _, err := NewStream(cache.Config{Size: 8192, LineSize: 64, Assoc: 1}, l2link, 3); err == nil {
		t.Fatal("oversized line accepted for stream engine")
	}
}

func TestStreamDepthZeroMatchesBlocking(t *testing.T) {
	cfg := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	st, err := NewStream(cfg, l2link, 0)
	if err != nil {
		t.Fatal(err)
	}
	bl, _ := NewBlocking(cfg, l2link, 0)
	refs := seq(0, 1024)
	rs := Run(st, refs)
	rb := Run(bl, refs)
	if rs.StallCycles != rb.StallCycles || rs.Misses != rb.Misses {
		t.Fatalf("depth-0 stream (%+v) != blocking (%+v)", rs, rb)
	}
}

func TestStreamBufferCatchesSequentialRun(t *testing.T) {
	cfg := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	st, err := NewStream(cfg, l2link, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(st, seq(1<<20, 4096))
	// 1024 sequential 16-byte lines with a 6-deep buffer and no top-up on
	// consumption: one full miss every 7 lines (the Table 8 model).
	wantMisses := int64(1024 / 7)
	if res.Misses < wantMisses-3 || res.Misses > wantMisses+3 {
		t.Fatalf("misses = %d, want ~%d (one per depth+1 lines)", res.Misses, wantMisses)
	}
	if res.BufferHits != 1024-res.Misses {
		t.Fatalf("buffer hits = %d, want %d", res.BufferHits, 1024-res.Misses)
	}
	// Buffer-hit lines arrive ahead of 4-instructions-per-line execution,
	// so nearly all stall comes from the periodic full misses.
	maxStall := res.Misses*int64(l2link.Latency) + 64
	if res.StallCycles > maxStall {
		t.Fatalf("stall %d exceeds expected bound %d", res.StallCycles, maxStall)
	}
}

func TestStreamCancelsOnNonSequentialMiss(t *testing.T) {
	cfg := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	st, _ := NewStream(cfg, l2link, 4)
	st.Fetch(0)       // miss, stream starts at lines 1..4
	st.Fetch(1 << 20) // non-sequential: cancel, restart
	res := st.Result()
	if res.Misses != 2 {
		t.Fatalf("misses = %d, want 2", res.Misses)
	}
	// The old stream's lines must be gone: fetching line 1 of the old
	// stream is a fresh miss, not a buffer hit.
	st.Fetch(16)
	res = st.Result()
	if res.Misses != 3 {
		t.Fatalf("cancelled prefetch still delivered: %+v", res)
	}
}

func TestStreamBufferHitMovesLineToCache(t *testing.T) {
	cfg := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	st, _ := NewStream(cfg, l2link, 4)
	st.Fetch(0)  // miss; 16,32,48,64 head into the buffer
	st.Fetch(16) // buffer hit → moved to L1
	if !st.Cache().Contains(16) {
		t.Fatal("buffer hit did not move line into L1")
	}
	res := st.Result()
	if res.BufferHits != 1 {
		t.Fatalf("BufferHits = %d", res.BufferHits)
	}
}

func TestRunFiltersDataRefs(t *testing.T) {
	e, _ := NewBlocking(l1cfg, l2link, 0)
	refs := []trace.Ref{
		{Addr: 0, Kind: trace.IFetch},
		{Addr: 4096, Kind: trace.DRead},
		{Addr: 8192, Kind: trace.DWrite},
		{Addr: 4, Kind: trace.IFetch},
	}
	res := Run(e, refs)
	if res.Instructions != 2 {
		t.Fatalf("instructions = %d, want 2 (data refs must be ignored)", res.Instructions)
	}
}

func TestConstructorsRejectBadConfig(t *testing.T) {
	badCache := cache.Config{Size: 7, LineSize: 32, Assoc: 1}
	badLink := memsys.Transfer{}
	if _, err := NewBlocking(badCache, l2link, 0); err == nil {
		t.Error("NewBlocking accepted bad cache")
	}
	if _, err := NewBlocking(l1cfg, badLink, 0); err == nil {
		t.Error("NewBlocking accepted bad link")
	}
	if _, err := NewBlocking(l1cfg, l2link, -1); err == nil {
		t.Error("NewBlocking accepted negative prefetch")
	}
	if _, err := NewBypass(badCache, l2link, 0); err == nil {
		t.Error("NewBypass accepted bad cache")
	}
	if _, err := NewBypass(l1cfg, badLink, 0); err == nil {
		t.Error("NewBypass accepted bad link")
	}
	if _, err := NewBypass(l1cfg, l2link, -2); err == nil {
		t.Error("NewBypass accepted negative prefetch")
	}
	if _, err := NewStream(cache.Config{Size: 8192, LineSize: 16, Assoc: 1}, l2link, -1); err == nil {
		t.Error("NewStream accepted negative depth")
	}
	if _, err := NewStream(cache.Config{Size: 7, LineSize: 16, Assoc: 1}, l2link, 1); err == nil {
		t.Error("NewStream accepted bad cache")
	}
}

func TestBlockingResultMatchesSimulation(t *testing.T) {
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  cache.Config
		link memsys.Transfer
	}{
		{cache.Config{Size: 8192, LineSize: 32, Assoc: 1}, memsys.Economy().Memory},
		{cache.Config{Size: 65536, LineSize: 64, Assoc: 1}, memsys.Economy().Memory},
		{cache.Config{Size: 65536, LineSize: 64, Assoc: 4}, memsys.HighPerformance().Memory},
		{cache.Config{Size: 32768, LineSize: 128, Assoc: 2}, memsys.L1L2Link()},
	} {
		e, err := NewBlocking(tc.cfg, tc.link, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := Run(e, refs)
		got := BlockingResult(want.Instructions, want.Misses, tc.cfg.LineSize, tc.link)
		if got != want {
			t.Errorf("%+v over %+v: analytic %+v != simulated %+v", tc.cfg, tc.link, got, want)
		}
		if got.CPIinstr() != want.CPIinstr() {
			t.Errorf("%+v: CPIinstr mismatch %v != %v", tc.cfg, got.CPIinstr(), want.CPIinstr())
		}
	}
}
