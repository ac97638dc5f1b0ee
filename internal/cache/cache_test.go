package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"ibsim/internal/xrand"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Size: 0, LineSize: 32, Assoc: 1},
		{Size: -8192, LineSize: 32, Assoc: 1},
		{Size: 8192, LineSize: 0, Assoc: 1},
		{Size: 8192, LineSize: 24, Assoc: 1},               // not a power of two
		{Size: 8200, LineSize: 32, Assoc: 1},               // size not multiple of line
		{Size: 8192, LineSize: 32, Assoc: 3},               // lines % assoc != 0... 256%3 != 0
		{Size: 8192, LineSize: 32, Assoc: 500},             // assoc > lines
		{Size: 8192, LineSize: 32, Assoc: -2},              // negative
		{Size: 8192, LineSize: 32, Assoc: 1, SubBlock: 24}, // not pow2
		{Size: 8192, LineSize: 32, Assoc: 1, SubBlock: 64}, // > line
		{Size: 8192, LineSize: 128, Assoc: 1, SubBlock: 1}, // 128 sub-blocks
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	good := []Config{
		{Size: 8192, LineSize: 32, Assoc: 1},
		{Size: 8192, LineSize: 32, Assoc: 8},
		{Size: 8192, LineSize: 32, Assoc: 0}, // fully associative
		{Size: 64 * 1024, LineSize: 4, Assoc: 1},
		{Size: 8192, LineSize: 64, Assoc: 2, SubBlock: 16},
	}
	for _, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestConfigString(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Size: 8192, LineSize: 32, Assoc: 1}, "8KB/32B/direct-mapped"},
		{Config{Size: 65536, LineSize: 64, Assoc: 8}, "64KB/64B/8-way"},
		{Config{Size: 512, LineSize: 32, Assoc: 0}, "512B/32B/fully-assoc"},
	} {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{Size: 8192, LineSize: 32, Assoc: 2}
	if cfg.Lines() != 256 {
		t.Errorf("Lines = %d", cfg.Lines())
	}
	if cfg.Sets() != 128 {
		t.Errorf("Sets = %d", cfg.Sets())
	}
	fa := Config{Size: 1024, LineSize: 32, Assoc: 0}
	if fa.Sets() != 1 {
		t.Errorf("fully-assoc Sets = %d", fa.Sets())
	}
}

func TestDirectMappedBasics(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1}) // 4 sets
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("second access missed")
	}
	if !c.Access(31) {
		t.Fatal("same-line access missed")
	}
	if c.Access(32) {
		t.Fatal("next line hit cold")
	}
	// 0 and 128 conflict in a 4-set DM cache with 32B lines.
	if c.Access(128) {
		t.Fatal("conflicting line hit cold")
	}
	if c.Access(0) {
		t.Fatal("line 0 survived conflict eviction")
	}
	st := c.Stats()
	if st.Accesses != 6 || st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUOrder(t *testing.T) {
	// 2-way, 1 set: lines A=0, B=64, C=128 (line size 64, size 128).
	c := MustNew(Config{Size: 128, LineSize: 64, Assoc: 2})
	c.Access(0)   // A miss, fill
	c.Access(64)  // B miss, fill
	c.Access(0)   // A hit → B is LRU
	c.Access(128) // C miss → evicts B
	if !c.Access(0) {
		t.Fatal("A evicted, want B")
	}
	if c.Access(64) {
		t.Fatal("B survived, want evicted")
	}
}

func TestFIFOOrder(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 64, Assoc: 2, Replacement: FIFO})
	c.Access(0)   // A fill (oldest)
	c.Access(64)  // B fill
	c.Access(0)   // A hit — does NOT refresh FIFO stamp
	c.Access(128) // C fill → evicts A (oldest fill)
	if c.Contains(0) {
		t.Fatal("FIFO: A survived, want evicted")
	}
	if !c.Contains(64) {
		t.Fatal("FIFO: B evicted unexpectedly")
	}
}

func TestRandomReplacementIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		c := MustNew(Config{Size: 256, LineSize: 32, Assoc: 4, Replacement: Random, Seed: seed})
		rng := xrand.New(1)
		var out []bool
		for i := 0; i < 2000; i++ {
			out = append(out, c.Access(uint64(rng.Intn(64))*32))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestFullyAssociativeNoConflicts(t *testing.T) {
	// 4 lines fully associative: any 4 distinct lines coexist.
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 0})
	addrs := []uint64{0, 1 << 10, 2 << 10, 3 << 10}
	for _, a := range addrs {
		c.Access(a)
	}
	for _, a := range addrs {
		if !c.Access(a) {
			t.Fatalf("line %x missing from fully-assoc cache", a)
		}
	}
	// Fifth distinct line evicts LRU (addrs[0], refreshed above... LRU is addrs[0] after re-access loop: order is 0,1k,2k,3k all re-accessed, so LRU is 0).
	c.Access(4 << 10)
	if c.Access(0) {
		t.Fatal("LRU line survived in full fully-assoc cache")
	}
}

func TestLookupDoesNotFill(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1})
	if c.Lookup(0) {
		t.Fatal("cold lookup hit")
	}
	if c.Contains(0) {
		t.Fatal("Lookup filled the line")
	}
	c.Fill(0)
	if !c.Lookup(0) {
		t.Fatal("filled line missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestContainsIsPure(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 64, Assoc: 2})
	c.Access(0)
	c.Access(64)
	before := c.Stats()
	// Contains must not update LRU: probe A, then evict — LRU must still be A.
	c.Contains(0)
	c.Contains(0)
	if got := c.Stats(); got != before {
		t.Fatalf("Contains changed stats: %+v vs %+v", got, before)
	}
	c.Access(128) // evicts LRU = line 0 despite the probes
	if c.Contains(0) {
		t.Fatal("Contains updated replacement state")
	}
}

func TestFillRefreshesResidentLine(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 64, Assoc: 2})
	c.Access(0)  // A
	c.Access(64) // B; LRU=A
	c.Fill(0)    // refresh A; LRU=B
	c.Access(128)
	if !c.Contains(0) {
		t.Fatal("refreshed line was evicted")
	}
	if c.Contains(64) {
		t.Fatal("LRU line survived")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1})
	c.Access(0)
	if !c.Invalidate(0) {
		t.Fatal("Invalidate on resident line returned false")
	}
	if c.Invalidate(0) {
		t.Fatal("Invalidate on absent line returned true")
	}
	if c.Contains(0) {
		t.Fatal("line survived invalidation")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestReset(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1})
	c.Access(0)
	c.Access(32)
	c.Reset()
	if c.ResidentLines() != 0 {
		t.Fatal("Reset left lines resident")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("Reset left stats")
	}
	if c.Access(0) {
		t.Fatal("post-Reset access hit")
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1})
	c.Access(0)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats left counters")
	}
	if !c.Access(0) {
		t.Fatal("ResetStats cleared contents")
	}
}

func TestSubBlockAllocation(t *testing.T) {
	// 64-byte lines, 16-byte sub-blocks.
	c := MustNew(Config{Size: 128, LineSize: 64, Assoc: 2, SubBlock: 16})
	// Miss at offset 32 (sub-block 2): fills sub-blocks 2 and 3 only.
	if c.Access(32) {
		t.Fatal("cold access hit")
	}
	if !c.Access(48) {
		t.Fatal("subsequent sub-block not filled")
	}
	if c.Access(0) {
		t.Fatal("earlier sub-block unexpectedly valid")
	}
	st := c.Stats()
	if st.SubMisses != 1 {
		t.Fatalf("SubMisses = %d, want 1 (the offset-0 access)", st.SubMisses)
	}
	// After the sub-miss at 0, sub-blocks 0..3 are all valid.
	if !c.Access(16) {
		t.Fatal("sub-block 1 not filled by sub-miss refill")
	}
}

func TestSubBlockLookupCountsSubMiss(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 64, Assoc: 2, SubBlock: 16})
	c.Fill(48) // fills sub-block 3 only
	if c.Lookup(0) {
		t.Fatal("invalid sub-block hit")
	}
	if c.Stats().SubMisses != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	if !c.Lookup(48) {
		t.Fatal("valid sub-block missed")
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty MissRatio != 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRatio() != 0.3 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Fatal("Replacement names wrong")
	}
	if !strings.HasPrefix(Replacement(9).String(), "Replacement(") {
		t.Fatal("unknown Replacement name wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew on bad config did not panic")
		}
	}()
	MustNew(Config{Size: 7, LineSize: 32, Assoc: 1})
}

// simulate counts misses for a reference string on a given geometry.
func simulate(cfg Config, addrs []uint64) int64 {
	c := MustNew(cfg)
	for _, a := range addrs {
		c.Access(a)
	}
	return c.Stats().Misses
}

// Property (LRU inclusion): doubling associativity at a fixed set count
// never increases misses under LRU. This is the classic stack property for
// set-refinement-preserving growth.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		addrs := make([]uint64, len(raw))
		for i, v := range raw {
			addrs[i] = uint64(v) * 8
		}
		// 16 sets × 32B lines; assoc 1, 2, 4 with same set count.
		m1 := simulate(Config{Size: 16 * 32 * 1, LineSize: 32, Assoc: 1}, addrs)
		m2 := simulate(Config{Size: 16 * 32 * 2, LineSize: 32, Assoc: 2}, addrs)
		m4 := simulate(Config{Size: 16 * 32 * 4, LineSize: 32, Assoc: 4}, addrs)
		return m1 >= m2 && m2 >= m4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (fully-associative LRU capacity monotonicity): a larger
// fully-associative LRU cache never misses more.
func TestFullyAssocMonotonicityProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		addrs := make([]uint64, len(raw))
		for i, v := range raw {
			addrs[i] = uint64(v) * 4
		}
		small := simulate(Config{Size: 8 * 32, LineSize: 32, Assoc: 0}, addrs)
		big := simulate(Config{Size: 32 * 32, LineSize: 32, Assoc: 0}, addrs)
		return big <= small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hits + Misses == Accesses always.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(raw []uint16, assocSel uint8) bool {
		assoc := []int{1, 2, 4, 0}[assocSel%4]
		c := MustNew(Config{Size: 2048, LineSize: 32, Assoc: assoc})
		for _, v := range raw {
			c.Access(uint64(v))
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessDM8KB(b *testing.B) {
	c := MustNew(Config{Size: 8192, LineSize: 32, Assoc: 1})
	rng := xrand.New(1)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<16-1)])
	}
}

func BenchmarkAccess8Way64KB(b *testing.B) {
	c := MustNew(Config{Size: 65536, LineSize: 32, Assoc: 8})
	rng := xrand.New(1)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<16-1)])
	}
}

func TestConfigAccessorAndFillEvict(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1})
	if got := c.Config(); got.Assoc != 1 || got.Size != 128 {
		t.Fatalf("Config() = %+v", got)
	}
	// FillEvict on an empty set: no victim.
	if _, ok := c.FillEvict(0); ok {
		t.Fatal("eviction reported from empty set")
	}
	// Conflicting fill: the evicted address must round-trip exactly.
	evicted, ok := c.FillEvict(128) // same set as 0 in a 4-set cache
	if !ok {
		t.Fatal("no eviction reported for conflicting fill")
	}
	if evicted != 0 {
		t.Fatalf("evicted = %#x, want 0", evicted)
	}
	// Refreshing a resident line reports no eviction.
	if _, ok := c.FillEvict(128); ok {
		t.Fatal("refresh reported an eviction")
	}
	// ResidentLines reflects occupancy.
	if got := c.ResidentLines(); got != 1 {
		t.Fatalf("ResidentLines = %d", got)
	}
}

func TestSubBitNonSector(t *testing.T) {
	// Non-sector caches treat every valid line as fully valid: Access on a
	// resident line hits regardless of offset.
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 1})
	c.Fill(0)
	for off := uint64(0); off < 32; off += 4 {
		if !c.Access(off) {
			t.Fatalf("offset %d missed in non-sector cache", off)
		}
	}
}

// TestAccessNoAllocs pins the hot path's zero-allocation property: Access,
// Lookup, and Fill must never allocate, hit or miss, at any associativity.
func TestAccessNoAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 8192, LineSize: 32, Assoc: 1},
		{Size: 65536, LineSize: 64, Assoc: 8},
		{Size: 8192, LineSize: 64, Assoc: 1, SubBlock: 16},
	} {
		c := MustNew(cfg)
		var addr uint64
		if n := testing.AllocsPerRun(2000, func() {
			c.Access(addr) // cold: miss+fill; warm: hit
			c.Lookup(addr)
			c.Fill(addr + 1<<20) // conflicting line: fill+evict
			addr += 4
		}); n != 0 {
			t.Errorf("%v: %v allocs per access round, want 0", cfg, n)
		}
	}
}

// BenchmarkAccessHitDM measures the direct-mapped hit fast path: every
// access after the first re-touches a resident line.
func BenchmarkAccessHitDM(b *testing.B) {
	c := MustNew(Config{Size: 8192, LineSize: 32, Assoc: 1})
	c.Access(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}

// BenchmarkAccessHit8Way measures the associative hit path (LRU stamp
// update plus way scan).
func BenchmarkAccessHit8Way(b *testing.B) {
	c := MustNew(Config{Size: 65536, LineSize: 32, Assoc: 8})
	c.Access(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}

// BenchmarkAccessMissDM measures the miss+fill path: two lines conflicting
// in one direct-mapped set, so every access evicts.
func BenchmarkAccessMissDM(b *testing.B) {
	c := MustNew(Config{Size: 8192, LineSize: 32, Assoc: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i&1) << 20)
	}
}

// AccessRun over random sequential runs leaves every geometry and policy
// (direct-mapped, set-associative LRU, FIFO and random, sector, fully
// associative) with the statistics and contents of one Access per
// reference.
func TestAccessRunMatchesAccess(t *testing.T) {
	cfgs := []Config{
		{Size: 1024, LineSize: 32, Assoc: 1},
		{Size: 1024, LineSize: 16, Assoc: 2},
		{Size: 1024, LineSize: 32, Assoc: 4, Replacement: FIFO},
		{Size: 1024, LineSize: 32, Assoc: 4, Replacement: Random, Seed: 7},
		{Size: 2048, LineSize: 64, Assoc: 2, SubBlock: 16},
		{Size: 512, LineSize: 32, Assoc: 0},
	}
	rng := xrand.New(5)
	for _, cfg := range cfgs {
		run, ref := MustNew(cfg), MustNew(cfg)
		for i := 0; i < 3000; i++ {
			start := uint64(rng.Intn(1<<14)) &^ 3
			n := int64(1 + rng.Intn(40))
			run.AccessRun(start, n, 4)
			for k := int64(0); k < n; k++ {
				ref.Access(start + uint64(k)*4)
			}
		}
		if run.Stats() != ref.Stats() {
			t.Fatalf("%v: AccessRun stats %+v, Access %+v", cfg, run.Stats(), ref.Stats())
		}
		for a := uint64(0); a < 1<<14; a += 4 {
			if run.Contains(a) != ref.Contains(a) {
				t.Fatalf("%v: residency of %#x differs", cfg, a)
			}
		}
	}
}

// Access's direct-mapped path (accessDM4, which skips the hit's stamp
// store) answers and fills exactly as the general path does.
func TestAccessDM4MatchesGeneralPath(t *testing.T) {
	cfg := Config{Size: 2048, LineSize: 16, Assoc: 1}
	fast, general := MustNew(cfg), MustNew(cfg)
	general.dm4 = false
	rng := xrand.New(4)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<14)) &^ 3
		if fast.Access(addr) != general.Access(addr) || fast.Stats() != general.Stats() {
			t.Fatalf("access %d (%#x): stats %+v, general %+v", i, addr, fast.Stats(), general.Stats())
		}
	}
	for i := range fast.ways {
		f, g := fast.ways[i], general.ways[i]
		if f.valid != g.valid || f.tag != g.tag || f.subValid != g.subValid {
			t.Fatalf("way %d: %+v, general %+v", i, f, g)
		}
	}
}
