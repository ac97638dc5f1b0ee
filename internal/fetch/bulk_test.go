package fetch

import (
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// randomRunTrace builds a sequential-heavy instruction stream with jumps and
// domain switches, optionally from an unaligned base, bounded to a footprint
// that exercises both hit-dominated and thrashing cache behavior.
func randomRunTrace(rng *xrand.Source, n int, footprint uint64) []trace.Ref {
	refs := make([]trace.Ref, n)
	addr := rng.Uint64n(footprint)
	dom := trace.User
	for i := range refs {
		refs[i] = trace.Ref{Addr: addr, Kind: trace.IFetch, Domain: dom}
		if rng.Bool(0.08) {
			addr = rng.Uint64n(footprint)
			if rng.Bool(0.2) {
				dom = trace.Domain(rng.Intn(int(trace.NumDomains)))
			}
		} else {
			addr += trace.InstrBytes
		}
	}
	return refs
}

// The tentpole equivalence property: for every engine type, replaying the
// run-compacted trace through FetchRuns produces a Result bit-identical to
// per-reference fetch.Run, across random geometries, link bandwidths (the
// Bypass closed form must hold for B<4, B=4, B>4), prefetch depths, sector
// caches, and caches tiny enough that prefetches evict the demand line
// (forcing the Touch-miss fallback).
func TestFetchRunMatchesPerRef(t *testing.T) {
	rng := xrand.New(0xF37C4)
	lineSizes := []int{4, 8, 16, 32, 64}
	bws := []int{1, 2, 3, 4, 8, 16, 32, 64}
	for trial := 0; trial < 300; trial++ {
		ls := lineSizes[rng.Intn(len(lineSizes))]
		sets := 1 << rng.Intn(6) // 1..32 sets: includes pathologically tiny caches
		assoc := []int{1, 2, 4}[rng.Intn(3)]
		cfg := cache.Config{Size: sets * assoc * ls, LineSize: ls, Assoc: assoc}
		link := memsys.Transfer{Latency: 1 + rng.Intn(20), BytesPerCycle: bws[rng.Intn(len(bws))]}
		pf := rng.Intn(4)
		kind := rng.Intn(7)

		mk := func() (Engine, error) {
			switch kind {
			case 0:
				c := cfg
				if rng2 := ls / 4; rng2 >= 1 && trial%3 == 0 && ls >= 16 {
					c.SubBlock = ls / 4 // sector cache (prefetch-free path)
					return NewBlocking(c, link, 0)
				}
				return NewBlocking(c, link, pf)
			case 1:
				return NewBypass(cfg, link, pf)
			case 2:
				if ls > 2*link.BytesPerCycle {
					return NewBlocking(cfg, link, pf)
				}
				return NewStream(cfg, link, rng.Intn(8))
			case 3:
				if ls > 2*link.BytesPerCycle {
					return NewBypass(cfg, link, pf)
				}
				return NewMultiStream(cfg, link, 1+rng.Intn(3), 1+rng.Intn(6))
			case 4:
				return NewVictim(cfg, link, 1+rng.Intn(4))
			case 5:
				if ls > 2*link.BytesPerCycle {
					return NewVictim(cfg, link, 1+rng.Intn(4))
				}
				return NewPredict(cfg, link, 1+rng.Intn(6), 1<<rng.Intn(8))
			default:
				l2cfg := cache.Config{Size: cfg.Size * 8, LineSize: ls * 2, Assoc: 2}
				return NewHierarchy(cfg, l2cfg, link, memsys.Transfer{Latency: 24, BytesPerCycle: 8})
			}
		}

		// Footprint spans a few multiples of the cache so both hit-heavy and
		// evicting streams occur; unaligned bases exercise the segment ceil.
		foot := uint64(cfg.Size) * uint64(1+rng.Intn(4))
		refs := randomRunTrace(rng, 3000, foot)
		if trial%5 == 0 {
			for i := range refs {
				refs[i].Addr += 2
			}
		}
		runs := trace.Compact(refs)

		// The two engines must be built identically; mk is deterministic per
		// trial aside from the rng draws, so draw once and reuse.
		e1, err1 := mk()
		if err1 != nil {
			t.Fatalf("trial %d: building reference engine: %v", trial, err1)
		}
		e2 := cloneEngine(t, e1, cfg, link)

		want := Run(e1, refs)
		e2.FetchRuns(runs)
		if got := e2.Result(); got != want {
			t.Fatalf("trial %d (%T %s link=%+v): bulk %+v != per-ref %+v",
				trial, e1, cfg, link, got, want)
		}
	}
}

// cloneEngine builds a second engine with the same configuration as e.
func cloneEngine(t *testing.T, e Engine, cfg cache.Config, link memsys.Transfer) Engine {
	t.Helper()
	var (
		out Engine
		err error
	)
	switch v := e.(type) {
	case *Blocking:
		c := cfg
		c.SubBlock = int(v.subBlock)
		out, err = NewBlocking(c, link, v.f.extra)
	case *Bypass:
		out, err = NewBypass(cfg, link, v.prefetch)
	case *Stream:
		out, err = NewStream(cfg, link, int(v.model.depth))
	case *MultiStream:
		out, err = NewMultiStream(cfg, link, v.ways, v.depth)
	case *Victim:
		out, err = NewVictim(cfg, link, v.vc.Config().Lines())
	case *Hierarchy:
		out, err = NewHierarchy(cfg, v.l2.Config(), link, v.memLink)
	case *Predict:
		out, err = NewPredict(cfg, link, v.depth, len(v.predTag))
	default:
		t.Fatalf("unknown engine %T", e)
	}
	if err != nil {
		t.Fatalf("cloning %T: %v", e, err)
	}
	return out
}

// plainEngine is an engine outside every content class whose FetchRuns
// issues single fetches.
type plainEngine struct{ inner *Blocking }

func (p *plainEngine) Fetch(addr uint64)          { p.inner.Fetch(addr) }
func (p *plainEngine) FetchRuns(runs []trace.Run) { fetchEach(p, runs) }
func (p *plainEngine) Result() Result             { return p.inner.Result() }

// fetchEach issues every instruction of runs to e as a single Fetch.
func fetchEach(e interface{ Fetch(addr uint64) }, runs []trace.Run) {
	for _, r := range runs {
		for i := int64(0); i < r.Len; i++ {
			e.Fetch(r.Start + uint64(i)*trace.InstrBytes)
		}
	}
}

// An engine whose FetchRuns issues single fetches replays a compacted trace
// exactly as per-reference Run and the wrapped engine's bulk path do.
func TestRunCompactFallback(t *testing.T) {
	cfg := cache.Config{Size: 4096, LineSize: 16, Assoc: 1}
	refs := randomRunTrace(xrand.New(5), 2000, 1<<14)
	runs := trace.Compact(refs)
	a, _ := NewBlocking(cfg, l2link, 1)
	b, _ := NewBlocking(cfg, l2link, 1)
	c, _ := NewBlocking(cfg, l2link, 1)
	want := Run(a, refs)
	p := &plainEngine{inner: b}
	p.FetchRuns(runs)
	c.FetchRuns(runs)
	if got, bulk := p.Result(), c.Result(); got != want || bulk != want {
		t.Fatalf("single fetches %+v, bulk %+v, per-ref %+v", got, bulk, want)
	}
}

// An all-hit bulk replay must not allocate: it is the inner loop of the
// fan-out driver, and every engine's FetchRuns — the shared loop, Filter's
// fused pass, Bypass's segments and Predict's single fetches — runs in it.
// (A replay with misses may grow a miss log or Stream's slot bitset once;
// the warm, hit-dominated steady state is the case that matters.)
func TestFetchRunZeroAlloc(t *testing.T) {
	cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: 2}
	sector := cache.Config{Size: 8192, LineSize: 32, Assoc: 2, SubBlock: 8}
	// Footprint within the cache: after one warm replay everything hits.
	refs := randomRunTrace(xrand.New(11), 4000, 4096)
	runs := trace.Compact(refs)
	must := func(e Engine, err error) Engine {
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, tc := range []struct {
		name string
		e    Engine
	}{
		{"blocking", must(NewBlocking(cfg, l2link, 2))},
		{"blocking-dm", must(NewBlocking(l1cfg, l2link, 0))},
		{"sector", must(NewBlocking(sector, l2link, 0))},
		{"bypass", must(NewBypass(cfg, l2link, 2))},
		{"stream", must(NewStream(cfg, l2link, 6))},
		{"victim", must(NewVictim(cfg, l2link, 4))},
		{"multistream", must(NewMultiStream(cfg, l2link, 2, 4))},
		{"hierarchy", must(NewHierarchy(cfg, l2cfg64, l2link, memsys.Economy().Memory))},
		{"predict", must(NewPredict(cfg, l2link, 6, 1024))},
	} {
		tc.e.FetchRuns(runs) // warm
		allocs := testing.AllocsPerRun(10, func() { tc.e.FetchRuns(runs) })
		if allocs != 0 {
			t.Errorf("%s: FetchRuns allocated %v times per replay, want 0", tc.name, allocs)
		}
	}
}

// benchStream is a long, realistic sequential-heavy stream shared by the
// replay benchmarks.
func benchStream(n int) ([]trace.Ref, []trace.Run) {
	refs := randomRunTrace(xrand.New(42), n, 1<<17)
	return refs, trace.Compact(refs)
}

func BenchmarkFetchPerRef(b *testing.B) {
	refs, _ := benchStream(1 << 18)
	cfg := cache.Config{Size: 16384, LineSize: 32, Assoc: 1}
	b.SetBytes(int64(len(refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := NewBlocking(cfg, l2link, 1)
		Run(e, refs)
	}
}

func BenchmarkFetchRun(b *testing.B) {
	refs, runs := benchStream(1 << 18)
	cfg := cache.Config{Size: 16384, LineSize: 32, Assoc: 1}
	b.SetBytes(int64(len(refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := NewBlocking(cfg, l2link, 1)
		e.FetchRuns(runs)
	}
}
