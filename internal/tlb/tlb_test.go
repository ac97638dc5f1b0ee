package tlb

import (
	"testing"
	"testing/quick"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0, PageSize: 4096},
		{Entries: -4, PageSize: 4096},
		{Entries: 64, PageSize: 0},
		{Entries: 64, PageSize: 3000},
		{Entries: 64, PageSize: 4096, Assoc: 5},
		{Entries: 64, PageSize: 4096, Assoc: 128},
		{Entries: 48, PageSize: 4096, Assoc: 16}, // 3 sets: not pow2
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(R2000()); err != nil {
		t.Fatalf("R2000 config rejected: %v", err)
	}
}

func TestR2000Geometry(t *testing.T) {
	cfg := R2000()
	if cfg.Entries != 64 || cfg.PageSize != 4096 {
		t.Fatalf("R2000 = %+v", cfg)
	}
	tl := MustNew(cfg)
	if tl.Reach() != 64*4096 {
		t.Fatalf("Reach = %d", tl.Reach())
	}
}

func TestHitMiss(t *testing.T) {
	tl := MustNew(Config{Entries: 4, PageSize: 4096, Assoc: 0})
	if tl.Access(0x1000, trace.User) {
		t.Fatal("cold access hit")
	}
	if !tl.Access(0x1FFF, trace.User) {
		t.Fatal("same-page access missed")
	}
	if tl.Access(0x2000, trace.User) {
		t.Fatal("next page hit")
	}
	st := tl.Stats()
	if st.Accesses != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDomainTagging(t *testing.T) {
	tl := MustNew(Config{Entries: 8, PageSize: 4096, Assoc: 0})
	tl.Access(0x1000, trace.User)
	// Same VPN in a different domain must miss (separate address spaces).
	if tl.Access(0x1000, trace.Kernel) {
		t.Fatal("cross-domain access hit")
	}
	if !tl.Access(0x1000, trace.User) {
		t.Fatal("user mapping evicted by kernel install of same VPN")
	}
}

func TestLRUEviction(t *testing.T) {
	tl := MustNew(Config{Entries: 2, PageSize: 4096, Assoc: 0})
	tl.Access(0x1000, trace.User) // A
	tl.Access(0x2000, trace.User) // B
	tl.Access(0x1000, trace.User) // A hit → B LRU
	tl.Access(0x3000, trace.User) // C → evicts B
	if !tl.Access(0x1000, trace.User) {
		t.Fatal("A evicted")
	}
	if tl.Access(0x2000, trace.User) {
		t.Fatal("B survived")
	}
}

func TestCapacityReach(t *testing.T) {
	// 64-entry TLB: cycling through 64 pages hits steady-state; 65 thrashes
	// under LRU with a sequential sweep.
	tl := MustNew(R2000())
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < 64; p++ {
			tl.Access(uint64(p)*4096, trace.User)
		}
	}
	st := tl.Stats()
	if st.Misses != 64 {
		t.Fatalf("64-page working set: misses = %d, want 64 (compulsory only)", st.Misses)
	}
	tl.Reset()
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < 65; p++ {
			tl.Access(uint64(p)*4096, trace.User)
		}
	}
	if st := tl.Stats(); st.Hits != 0 {
		t.Fatalf("65-page sequential sweep under LRU should thrash; hits = %d", st.Hits)
	}
}

func TestSetAssociative(t *testing.T) {
	// 4 entries, 2-way → 2 sets. Pages 0 and 2 share set 0.
	tl := MustNew(Config{Entries: 4, PageSize: 4096, Assoc: 2})
	tl.Access(0*4096, trace.User)
	tl.Access(2*4096, trace.User)
	tl.Access(4*4096, trace.User) // third page in set 0: evicts LRU (page 0)
	if tl.Access(0*4096, trace.User) {
		t.Fatal("page 0 survived 2-way set overflow")
	}
}

func TestFIFOvsLRU(t *testing.T) {
	run := func(r Replacement) Stats {
		tl := MustNew(Config{Entries: 2, PageSize: 4096, Assoc: 0, Replacement: r})
		seq := []uint64{0, 1, 0, 2, 0} // page numbers
		for _, p := range seq {
			tl.Access(p*4096, trace.User)
		}
		return tl.Stats()
	}
	lru := run(LRU)   // 0m 1m 0h 2m(evict 1) 0h → 2 hits
	fifo := run(FIFO) // 0m 1m 0h 2m(evict 0) 0m(evict 1) → 1 hit
	if lru.Hits != 2 {
		t.Errorf("LRU hits = %d, want 2", lru.Hits)
	}
	if fifo.Hits != 1 {
		t.Errorf("FIFO hits = %d, want 1", fifo.Hits)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	run := func() int64 {
		tl := MustNew(Config{Entries: 4, PageSize: 4096, Assoc: 0, Replacement: Random, Seed: 3})
		for i := 0; i < 1000; i++ {
			tl.Access(uint64(i%7)*4096, trace.User)
		}
		return tl.Stats().Hits
	}
	if run() != run() {
		t.Fatal("random replacement not deterministic per seed")
	}
}

func TestFlushDomain(t *testing.T) {
	tl := MustNew(Config{Entries: 8, PageSize: 4096, Assoc: 0})
	tl.Access(0x1000, trace.User)
	tl.Access(0x2000, trace.User)
	tl.Access(0x1000, trace.Kernel)
	if n := tl.FlushDomain(trace.User); n != 2 {
		t.Fatalf("FlushDomain removed %d, want 2", n)
	}
	if tl.Access(0x1000, trace.User) {
		t.Fatal("user mapping survived flush")
	}
	if !tl.Access(0x1000, trace.Kernel) {
		t.Fatal("kernel mapping did not survive user flush")
	}
}

func TestReset(t *testing.T) {
	tl := MustNew(Config{Entries: 4, PageSize: 4096, Assoc: 0})
	tl.Access(0x1000, trace.User)
	tl.Reset()
	if tl.Stats() != (Stats{}) {
		t.Fatal("Reset left stats")
	}
	if tl.Access(0x1000, trace.User) {
		t.Fatal("Reset left mappings")
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty MissRatio != 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRatio() != 0.25 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{Entries: 0, PageSize: 4096})
}

// Property: hits + misses == accesses; a larger fully-associative LRU TLB
// never misses more on the same stream.
func TestTLBProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		small := MustNew(Config{Entries: 8, PageSize: 4096, Assoc: 0})
		big := MustNew(Config{Entries: 32, PageSize: 4096, Assoc: 0})
		for _, v := range raw {
			addr := uint64(v) << 10
			small.Access(addr, trace.User)
			big.Access(addr, trace.User)
		}
		s, b := small.Stats(), big.Stats()
		if s.Hits+s.Misses != s.Accesses {
			return false
		}
		return b.Misses <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refTLB is the reference model for TLB: a plain linear scan. Every access
// scans its whole set for the mapping, and a miss in a full set scans it
// again for the least-recently-stamped victim.
type refTLB struct {
	cfg     Config
	shift   uint
	sets    int
	entries []entry
	clock   uint64
	rng     *xrand.Source
	stats   Stats
}

func newRefTLB(cfg Config) *refTLB {
	n := MustNew(cfg).Config()
	r := &refTLB{cfg: n, sets: n.Entries / n.Assoc, entries: make([]entry, n.Entries)}
	for p := n.PageSize; p > 1; p >>= 1 {
		r.shift++
	}
	if n.Replacement == Random {
		r.rng = xrand.New(n.Seed ^ 0x7e5b)
	}
	return r
}

func (t *refTLB) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.stats = Stats{}
	t.clock = 0
}

func (t *refTLB) FlushDomain(d trace.Domain) int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].domain == d {
			t.entries[i] = entry{}
			n++
		}
	}
	return n
}

func (t *refTLB) Access(addr uint64, d trace.Domain) bool {
	t.stats.Accesses++
	t.clock++
	vpn := addr >> t.shift
	set := int(vpn) & (t.sets - 1)
	base := set * t.cfg.Assoc
	free := -1
	for i := 0; i < t.cfg.Assoc; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == vpn && e.domain == d {
			t.stats.Hits++
			if t.cfg.Replacement == LRU {
				e.stamp = t.clock
			}
			return true
		}
		if !e.valid && free < 0 {
			free = base + i
		}
	}
	t.stats.Misses++
	victim := free
	if victim < 0 {
		switch t.cfg.Replacement {
		case Random:
			victim = base + t.rng.Intn(t.cfg.Assoc)
		default:
			victim = base
			for i := 1; i < t.cfg.Assoc; i++ {
				if t.entries[base+i].stamp < t.entries[victim].stamp {
					victim = base + i
				}
			}
		}
	}
	t.entries[victim] = entry{tag: vpn, domain: d, valid: true, stamp: t.clock}
	return false
}

// TestAccessMatchesReference drives the TLB and the linear-scan reference
// with the same random streams — four domains sharing one small vpn pool,
// so mappings collide across domains and evictions are frequent, with
// FlushDomain and Reset interleaved — and requires the same hit or miss on
// every access, the same FlushDomain counts and the same final Stats.
func TestAccessMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	for _, pol := range []Replacement{LRU, FIFO, Random} {
		for _, entries := range []int{4, 8, 16, 64, 256} {
			for _, assoc := range []int{1, 2, 4, 0} {
				if assoc > entries {
					continue
				}
				cfg := Config{Entries: entries, PageSize: 4096, Assoc: assoc, Replacement: pol, Seed: rng.Uint64()}
				got, want := MustNew(cfg), newRefTLB(cfg)
				pages := 1 + entries/2 + rng.Intn(2*entries)
				for i := 0; i < 20000; i++ {
					switch op := rng.Intn(1000); {
					case op == 0:
						got.Reset()
						want.Reset()
					case op < 4:
						d := trace.Domain(rng.Intn(trace.NumDomains))
						if g, w := got.FlushDomain(d), want.FlushDomain(d); g != w {
							t.Fatalf("%+v: access %d: FlushDomain(%v) = %d, reference %d", cfg, i, d, g, w)
						}
					default:
						addr := uint64(rng.Intn(pages))<<12 | uint64(rng.Intn(4096))
						d := trace.Domain(rng.Intn(trace.NumDomains))
						if g, w := got.Access(addr, d), want.Access(addr, d); g != w {
							t.Fatalf("%+v: access %d (%#x, %v): hit %v, reference %v", cfg, i, addr, d, g, w)
						}
					}
				}
				if got.Stats() != want.stats {
					t.Fatalf("%+v: stats %+v, reference %+v", cfg, got.Stats(), want.stats)
				}
			}
		}
	}
}

// BenchmarkTLBAccess times the R2000 TLB over a recorded full gcc stream
// (instruction fetches and data references, 500k instructions) — the
// translations the DECstation 3100 model performs for one workload.
func BenchmarkTLBAccess(b *testing.B) {
	p, err := synth.Lookup("gcc")
	if err != nil {
		b.Fatal(err)
	}
	refs, err := synth.Trace(p, 0, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	tl := MustNew(R2000())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Reset()
		for _, r := range refs {
			tl.Access(r.Addr, r.Domain)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/access")
}
