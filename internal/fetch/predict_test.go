package fetch

import (
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

func TestPredictValidation(t *testing.T) {
	c16 := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	if _, err := NewPredict(c16, l2link, 0, 64); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := NewPredict(c16, l2link, 4, 0); err == nil {
		t.Error("zero table accepted")
	}
	if _, err := NewPredict(c16, l2link, 4, 48); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	if _, err := NewPredict(cache.Config{Size: 8192, LineSize: 64, Assoc: 1}, l2link, 4, 64); err == nil {
		t.Error("oversized line accepted")
	}
	if _, err := NewPredict(c16, memsys.Transfer{}, 4, 64); err == nil {
		t.Error("bad link accepted")
	}
}

func TestPredictLearnsSequential(t *testing.T) {
	// With no trained entries, the predictor falls back to sequential and
	// tops up on consumption — on a purely sequential run it must match the
	// topping-up sequential buffer (1-way MultiStream): one cold miss, then
	// an unbroken stream.
	c16 := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	pr, err := NewPredict(c16, l2link, 6, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := NewMultiStream(c16, l2link, 1, 6)
	refs := seq(1<<20, 2048)
	rp := Run(pr, refs)
	rm := Run(ms, refs)
	if rp.Misses != rm.Misses {
		t.Fatalf("predict misses %d != 1-way multistream misses %d on sequential run",
			rp.Misses, rm.Misses)
	}
	if rp.Misses != 1 {
		t.Fatalf("sequential run with top-up should cold-miss once, got %d", rp.Misses)
	}
}

func TestPredictLearnsBranchTarget(t *testing.T) {
	// A repeating non-sequential loop: A-run then jump to B-run then back.
	// The sequential stream buffer misses at every jump target forever; the
	// predictor learns the A→B and B→A transitions after one lap. Working
	// set exceeds the 512B L1 so the jump-target lines never stay cached.
	c16 := cache.Config{Size: 512, LineSize: 16, Assoc: 1}
	var lap []trace.Ref
	for i := 0; i < 64; i++ { // 1KB run at A
		lap = append(lap, trace.Ref{Addr: 0x10000 + uint64(i)*16, Kind: trace.IFetch})
	}
	// B's base is deliberately NOT a multiple of 64 KB from A: bases that
	// are 64-KB-aligned apart alias in a 4096-entry direct-mapped predictor
	// table and the B-run training would overwrite the A-run entries.
	for i := 0; i < 64; i++ { // 1KB run at B
		lap = append(lap, trace.Ref{Addr: 0x93000 + uint64(i)*16, Kind: trace.IFetch})
	}
	var refs []trace.Ref
	for l := 0; l < 20; l++ {
		refs = append(refs, lap...)
	}
	pr, _ := NewPredict(c16, l2link, 6, 4096)
	ms, _ := NewMultiStream(c16, l2link, 1, 6) // sequential with top-up: the fair baseline
	rp := Run(pr, refs)
	rm := Run(ms, refs)
	if rp.Misses >= rm.Misses {
		t.Fatalf("predictor (%d misses) not below sequential stream (%d) on branchy loop",
			rp.Misses, rm.Misses)
	}
	if rp.StallCycles >= rm.StallCycles {
		t.Fatalf("predictor stall %d not below stream stall %d", rp.StallCycles, rm.StallCycles)
	}
}

func TestPredictChainStopsAtLoop(t *testing.T) {
	// Train a 2-cycle A→B→A chain; prefetching from A must not loop
	// forever.
	c16 := cache.Config{Size: 8192, LineSize: 16, Assoc: 1}
	pr, _ := NewPredict(c16, l2link, 8, 64)
	a, b := uint64(0x1000), uint64(0x5000)
	pr.Fetch(a)
	pr.Fetch(b)
	pr.Fetch(a)
	pr.Fetch(b)
	// A further miss elsewhere triggers a chain walk through the trained
	// A↔B cycle; the dup check must terminate it.
	pr.Fetch(0x9000)
	if pr.Result().Instructions != 5 {
		t.Fatal("engine wedged")
	}
}

func TestPredictSanity(t *testing.T) {
	c16 := cache.Config{Size: 4096, LineSize: 16, Assoc: 1}
	pr, _ := NewPredict(c16, l2link, 4, 256)
	refs := randomStream(99, 5000)
	res := Run(pr, refs)
	if res.Instructions != 5000 || res.Misses > res.Instructions || res.StallCycles < 0 {
		t.Fatalf("insane result: %+v", res)
	}
}

// refPredict is Predict with its prefetch buffer in a map from line to
// arrival cycle. It shares the engine's L1 and predictor table through the
// embedded engine, whose own buffer it never touches, and is the reference
// the engine's slice buffer is checked against.
type refPredict struct {
	*Predict
	avail map[uint64]int64
}

func (p *refPredict) Fetch(addr uint64) {
	p.res.Instructions++
	la := addr &^ (p.lineSize - 1)
	if p.started && la != p.prevLine {
		p.train(p.prevLine, la)
	}
	p.started = true
	p.prevLine = la
	if p.l1.Lookup(addr) {
		return
	}
	now := p.now()
	if arrive, ok := p.avail[la]; ok {
		if arrive > now {
			p.res.StallCycles += arrive - now
			now = arrive
		}
		p.res.BufferHits++
		p.l1.Fill(la)
		delete(p.avail, la)
		next := p.predict(p.tail)
		if _, dup := p.avail[next]; !dup && !p.l1.Contains(next) {
			p.avail[next] = now + int64(p.link.Latency)
			p.tail = next
		}
		return
	}
	p.res.Misses++
	p.res.StallCycles += int64(p.link.FillCycles(int(p.lineSize)))
	now = p.now()
	p.l1.Fill(la)
	clear(p.avail)
	next := la
	p.tail = la
	for i := 1; i <= p.depth; i++ {
		next = p.predict(next)
		if _, dup := p.avail[next]; dup || p.l1.Contains(next) {
			break
		}
		p.avail[next] = now + int64(i)
		p.tail = next
	}
}

func (p *refPredict) FetchRuns(runs []trace.Run) { fetchEach(p, runs) }

// Predict's slice buffer must time every fetch as the map reference does,
// per instruction and run-batched, on random traces over direct-mapped and
// 2-way L1s of 1 to 128 sets, depths 1 to 8 and tables of 1 to 1,024
// entries.
func TestPredictMatchesMapReference(t *testing.T) {
	rng := xrand.New(0x9ed1c7)
	for trial := 0; trial < 60; trial++ {
		ls := []int{8, 16, 32}[rng.Intn(3)]
		assoc := 1 + rng.Intn(2)
		cfg := cache.Config{Size: (1 << rng.Intn(8)) * ls * assoc, LineSize: ls, Assoc: assoc}
		link := memsys.Transfer{Latency: 1 + rng.Intn(12), BytesPerCycle: ls / 2 * (1 + rng.Intn(2))}
		depth, entries := 1+rng.Intn(8), 1<<rng.Intn(11)
		mk := func() *Predict {
			p, err := NewPredict(cfg, link, depth, entries)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		refs := randomRunTrace(rng, 4000, uint64(cfg.Size)*uint64(1+rng.Intn(4)))
		want := Run(&refPredict{Predict: mk(), avail: map[uint64]int64{}}, refs)
		if want.BufferHits == 0 {
			t.Fatalf("trial %d: fixture never hits the buffer", trial)
		}
		if got := Run(mk(), refs); got != want {
			t.Fatalf("trial %d (%s depth %d, %d entries): Fetch %+v, map reference %+v", trial, cfg, depth, entries, got, want)
		}
		bulk := mk()
		bulk.FetchRuns(trace.Compact(refs))
		if got := bulk.Result(); got != want {
			t.Fatalf("trial %d (%s depth %d, %d entries): FetchRuns %+v, map reference %+v", trial, cfg, depth, entries, got, want)
		}
	}
}
