package fetch

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// refStream is the map-based stream-buffer model: every buffered line keyed
// by address with its arrival cycle, rebuilt on each full miss. It is the
// reference the engine's O(1) timing model is checked against.
type refStream struct {
	l1       *cache.Cache
	link     memsys.Transfer
	depth    int
	lineSize uint64
	avail    map[uint64]int64 // buffered line → arrival cycle
	res      Result
}

func newRefStream(cfg cache.Config, link memsys.Transfer, depth int) *refStream {
	return &refStream{l1: cache.MustNew(cfg), link: link, depth: depth,
		lineSize: uint64(cfg.LineSize), avail: make(map[uint64]int64)}
}

func (s *refStream) Fetch(addr uint64) {
	s.res.Instructions++
	if s.l1.Lookup(addr) {
		return
	}
	now := s.res.Instructions + s.res.StallCycles
	la := addr &^ (s.lineSize - 1)
	if arrive, ok := s.avail[la]; ok {
		if arrive > now {
			s.res.StallCycles += arrive - now
		}
		s.res.BufferHits++
		s.l1.Fill(la)
		delete(s.avail, la)
		return
	}
	s.res.Misses++
	s.res.StallCycles += int64(s.link.FillCycles(int(s.lineSize)))
	now = s.res.Instructions + s.res.StallCycles
	s.l1.Fill(la)
	clear(s.avail)
	for i := 1; i <= s.depth; i++ {
		s.avail[la+uint64(i)*s.lineSize] = now + int64(i)
	}
}

func (s *refStream) FetchRuns(runs []trace.Run) { fetchEach(s, runs) }
func (s *refStream) Result() Result             { return s.res }

// refBlocking is Blocking(g, N) on a cache.Cache: one Lookup per fetch and,
// on a miss, Fills of the missing line and the N lines after it, each miss
// stalling one fill of them all. It logs every miss. It is the reference the
// line-key pass is checked against.
type refBlocking struct {
	l1       *cache.Cache
	lineSize uint64
	lines    int
	stall    int64
	res      Result
	events   []MissEvent
}

func newRefBlocking(cfg cache.Config, link memsys.Transfer, n int) *refBlocking {
	return &refBlocking{l1: cache.MustNew(cfg), lineSize: uint64(cfg.LineSize), lines: 1 + n,
		stall: int64(link.FillCycles(cfg.LineSize * (1 + n)))}
}

func (b *refBlocking) Fetch(addr uint64) {
	b.res.Instructions++
	if b.l1.Lookup(addr) {
		return
	}
	b.res.Misses++
	b.res.StallCycles += b.stall
	la := addr &^ (b.lineSize - 1)
	b.events = append(b.events, MissEvent{Index: b.res.Instructions - 1, Line: la})
	for i := 0; i < b.lines; i++ {
		b.l1.Fill(la + uint64(i)*b.lineSize)
	}
}

func (b *refBlocking) FetchRuns(runs []trace.Run) { fetchEach(b, runs) }
func (b *refBlocking) Result() Result             { return b.res }

// refBypass is Bypass(g, N) on a cache.Cache, one fetch at a time: a hit
// waits for its word if it is still streaming in; a miss waits for the
// memory port, then for the missing word, and fills the missing line and
// the N after it. It logs every miss.
type refBypass struct {
	l1                    *cache.Cache
	link                  memsys.Transfer
	lineSize              uint64
	lines                 int
	groupBase, groupLines uint64
	groupStart, busyUntil int64
	res                   Result
	events                []MissEvent
}

func newRefBypass(cfg cache.Config, link memsys.Transfer, n int) *refBypass {
	return &refBypass{l1: cache.MustNew(cfg), link: link, lineSize: uint64(cfg.LineSize), lines: 1 + n}
}

func (b *refBypass) Fetch(addr uint64) {
	b.res.Instructions++
	now := b.res.Instructions + b.res.StallCycles
	if b.l1.Lookup(addr) {
		if addr >= b.groupBase && addr < b.groupBase+b.groupLines*b.lineSize {
			if arrive := b.groupStart + int64(b.link.DeliveryCycle(int(addr-b.groupBase))); arrive > now {
				b.res.StallCycles += arrive - now
			}
		}
		return
	}
	b.res.Misses++
	start := max(now, b.busyUntil)
	la := addr &^ (b.lineSize - 1)
	b.events = append(b.events, MissEvent{Index: b.res.Instructions - 1, Line: la})
	b.res.StallCycles += start + int64(b.link.DeliveryCycle(int(addr-la))) - now
	b.groupBase, b.groupLines, b.groupStart = la, uint64(b.lines), start
	b.busyUntil = start + int64(b.link.FillCycles(int(b.lineSize)*b.lines))
	for i := 0; i < b.lines; i++ {
		b.l1.Fill(la + uint64(i)*b.lineSize)
	}
}

func (b *refBypass) FetchRuns(runs []trace.Run) { fetchEach(b, runs) }
func (b *refBypass) Result() Result             { return b.res }

// The direct-mapped Blocking and Bypass passes keep line keys, not a
// cache.Cache: per instruction and run-batched, their Results and logged
// misses must equal the cache.Cache references' on random traces, for 1 to
// 64 sets (classes whose fills evict the missing line included), 0 to 3
// prefetched lines, runs starting at unaligned addresses, and runs at the
// top of the address space, aligned or not, whose prefetches wrap to line 0.
func TestCompactPassesMatchCache(t *testing.T) {
	rng := xrand.New(0xc0de5)
	lineSizes := []int{4, 8, 16, 32, 64}
	bws := []int{1, 2, 4, 8, 16, 32}
	for sets := 1; sets <= 64; sets *= 2 {
		for n := 0; n <= 3; n++ {
			for _, shape := range []string{"aligned", "unaligned", "top", "unaligned top"} {
				ls := lineSizes[rng.Intn(len(lineSizes))]
				cfg := cache.Config{Size: sets * ls, LineSize: ls, Assoc: 1}
				link := memsys.Transfer{Latency: 1 + rng.Intn(20), BytesPerCycle: bws[rng.Intn(len(bws))]}
				foot := uint64(cfg.Size) * uint64(1+rng.Intn(4))
				var refs []trace.Ref
				switch shape {
				case "top", "unaligned top":
					refs = topTrace(rng.Uint64(), 3000, foot)
					if shape == "unaligned top" {
						for i := range refs {
							refs[i].Addr += 2
						}
					}
				default:
					// randomRunTrace starts its runs at any byte.
					refs = randomRunTrace(rng, 3000, foot)
					if shape == "aligned" {
						for i := range refs {
							refs[i].Addr &^= trace.InstrBytes - 1
						}
					}
				}
				runs := trace.Compact(refs)
				name := fmt.Sprintf("%s N=%d %s", cfg, n, shape)

				rb, rp := newRefBlocking(cfg, link, n), newRefBypass(cfg, link, n)
				wantB, wantP := Run(rb, refs), Run(rp, refs)
				if wantB.Misses == 0 {
					t.Fatalf("%s: fixture has %d misses in %d fetches", name, wantB.Misses, wantB.Instructions)
				}
				for _, bulk := range []bool{false, true} {
					replay := func(e Engine, log *MissLog) []MissEvent {
						log.On = true
						var events []MissEvent
						for i := 0; i < len(runs); i += 100 {
							batch := runs[i:min(i+100, len(runs))]
							if bulk {
								e.FetchRuns(batch)
							} else {
								fetchEach(e, batch)
							}
							events = append(events, log.Events...)
							log.Events = log.Events[:0]
						}
						return events
					}
					bl, err := NewBlocking(cfg, link, n)
					if err != nil {
						t.Fatal(err)
					}
					by, err := NewBypass(cfg, link, n)
					if err != nil {
						t.Fatal(err)
					}
					if bl.f.l1.c != nil || by.l1.c != nil {
						t.Fatalf("%s: a direct-mapped pass runs on a cache.Cache", name)
					}
					if got := replay(bl, bl.f.MissLog()); bl.Result() != wantB || !slices.Equal(got, rb.events) {
						t.Fatalf("%s bulk %v: blocking %+v, %d misses logged; cache.Cache %+v, %d",
							name, bulk, bl.Result(), len(got), wantB, len(rb.events))
					}
					if got := replay(by, by.MissLog()); by.Result() != wantP || !slices.Equal(got, rp.events) {
						t.Fatalf("%s bulk %v: bypass %+v, %d misses logged; cache.Cache %+v, %d",
							name, bulk, by.Result(), len(got), wantP, len(rp.events))
					}
				}
			}
		}
	}
}

// topTrace is a sequential-heavy stream confined to the lowest and highest
// span bytes of the address space, so that streams started near the top
// wrap their windows around to address 0.
func topTrace(seed uint64, n int, span uint64) []trace.Ref {
	rng := xrand.New(seed)
	refs := make([]trace.Ref, n)
	addr := -span
	for i := range refs {
		refs[i] = trace.Ref{Addr: addr, Kind: trace.IFetch}
		if rng.Bool(0.06) {
			addr = (rng.Uint64n(2*span) - span) &^ 3
		} else {
			addr += trace.InstrBytes
		}
	}
	return refs
}

// The stream engine — per instruction, run-batched, and split into a Filter
// pass plus its timing model fed from the miss log — must match the
// map-based reference at every depth, including depths beyond one bitset
// word and windows wrapping the top of the address space.
func TestStreamMatchesReference(t *testing.T) {
	l1l2 := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	for _, tc := range []struct {
		name string
		cfg  cache.Config
		link memsys.Transfer
		refs []trace.Ref
	}{
		{"dm-8k-16B", cache.Config{Size: 8192, LineSize: 16, Assoc: 1}, l1l2, randomRunTrace(xrand.New(1), 40000, 1<<16)},
		{"dm-1k-32B-thrash", cache.Config{Size: 1024, LineSize: 32, Assoc: 1}, memsys.Transfer{Latency: 3, BytesPerCycle: 32}, randomRunTrace(xrand.New(2), 40000, 1<<14)},
		{"2way-lru-2k", cache.Config{Size: 2048, LineSize: 16, Assoc: 2}, l1l2, randomRunTrace(xrand.New(3), 40000, 1<<14)},
		{"4way-fifo-4k", cache.Config{Size: 4096, LineSize: 16, Assoc: 4, Replacement: cache.FIFO}, l1l2, randomRunTrace(xrand.New(4), 40000, 1<<15)},
		{"tiny-dm-256B", cache.Config{Size: 256, LineSize: 16, Assoc: 1}, l1l2, randomRunTrace(xrand.New(5), 20000, 1<<12)},
		{"address-space-top", cache.Config{Size: 4096, LineSize: 16, Assoc: 1}, l1l2, topTrace(6, 40000, 1<<13)},
	} {
		runs := trace.Compact(tc.refs)
		for _, depth := range []int{0, 1, 6, 18, 63, 64, 65, 200} {
			ref := newRefStream(tc.cfg, tc.link, depth)
			want := Run(ref, tc.refs)
			if want.BufferHits == 0 && depth > 0 {
				t.Fatalf("%s depth %d: fixture never hits the buffer", tc.name, depth)
			}
			mk := func() *Stream {
				s, err := NewStream(tc.cfg, tc.link, depth)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			if got := Run(mk(), tc.refs); got != want {
				t.Errorf("%s depth %d: Fetch %+v != reference %+v", tc.name, depth, got, want)
			}
			bulk := mk()
			bulk.FetchRuns(runs)
			if got := bulk.Result(); got != want {
				t.Errorf("%s depth %d: FetchRuns %+v != reference %+v", tc.name, depth, got, want)
			}
			// The pass of one stream engine times another's model.
			_, f, _, ok := mk().Split()
			_, _, timing, _ := mk().Split()
			if !ok {
				t.Fatalf("%s: stream engine has no class", tc.name)
			}
			tm := timing.(*streamTiming)
			for len(runs) > 0 {
				batch := runs[:min(len(runs), 100)]
				runs = runs[len(batch):]
				f.FetchRuns(batch)
				tm.Misses(f.MissLog().Events)
				f.MissLog().Events = f.MissLog().Events[:0]
			}
			runs = trace.Compact(tc.refs)
			if got := tm.Result(f.Result().Instructions, f.Result().Misses); got != want {
				t.Errorf("%s depth %d: Filter+timing %+v != reference %+v", tc.name, depth, got, want)
			}
		}
	}
}

// Every member of a content class holds the class's L1: one blocking
// member's pass reproduces each blocking member of its class through its
// timing and each bypass member's misses, and the stream buffer's L1 misses
// (full misses plus buffer hits) are the one-line class's.
func TestClassMembersShareL1(t *testing.T) {
	refs := randomRunTrace(xrand.New(9), 30000, 1<<15)
	runs := trace.Compact(refs)
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	for _, cfg := range []cache.Config{
		{Size: 4096, LineSize: 16, Assoc: 1},
		{Size: 4096, LineSize: 32, Assoc: 2},
		{Size: 8192, LineSize: 16, Assoc: 4, Replacement: cache.FIFO},
	} {
		for _, n := range []int{0, 1, 3} {
			bl, _ := NewBlocking(cfg, link, n)
			slow, _ := NewBlocking(cfg, memsys.Economy().Memory, n)
			by, _ := NewBypass(cfg, link, n)
			class, f, _, _ := slow.Split()
			_, _, timing, _ := bl.Split()
			if c, _ := by.Class(); c != class {
				t.Fatalf("%s N=%d: bypass class %+v != blocking class %+v", cfg, n, c, class)
			}
			f.FetchRuns(runs)
			fr := f.Result()
			want := Run(bl, refs)
			if got := timing.Result(fr.Instructions, fr.Misses); got != want {
				t.Errorf("%s N=%d: blocking from class %+v != simulated %+v", cfg, n, got, want)
			}
			if byRes := Run(by, refs); byRes.Misses != fr.Misses || byRes.Instructions != fr.Instructions {
				t.Errorf("%s N=%d: bypass %+v vs class %+v", cfg, n, byRes, fr)
			}
			if n != 0 {
				continue
			}
			st, _ := NewStream(cfg, link, 6)
			if sr := Run(st, refs); sr.Misses+sr.BufferHits != fr.Misses {
				t.Errorf("%s: stream L1 misses %d+%d != class misses %d", cfg, sr.Misses, sr.BufferHits, fr.Misses)
			}
		}
	}
	sector := cache.Config{Size: 4096, LineSize: 64, Assoc: 1, SubBlock: 16}
	wide := memsys.Transfer{Latency: 6, BytesPerCycle: 32}
	b, _ := NewBlocking(sector, wide, 0)
	st, _ := NewStream(sector, wide, 2)
	by, _ := NewBypass(sector, wide, 0)
	_, _, _, bok := b.Split()
	_, _, _, sok := st.Split()
	_, byok := by.Class()
	if bok || sok || byok {
		t.Errorf("sector geometry has a content class: blocking %v stream %v bypass %v", bok, sok, byok)
	}
}

// A stream started on the top line of the address space buffers lines 0,
// 16, ... next: its window wraps.
func TestStreamWindowWrapsAddressSpace(t *testing.T) {
	cfg := cache.Config{Size: 4096, LineSize: 16, Assoc: 1}
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	refs := []trace.Ref{{Addr: math.MaxUint64 - 15}, {Addr: 0}, {Addr: 20}, {Addr: 48}}
	s, _ := NewStream(cfg, link, 2)
	got := Run(s, refs)
	want := Run(newRefStream(cfg, link, 2), refs)
	if got != want || got.BufferHits != 2 || got.Misses != 2 {
		t.Fatalf("wrapped window: %+v, reference %+v; want 2 buffer hits and 2 misses", got, want)
	}
}

// A huge depth costs nothing until slots are consumed: the slot bitset grows
// only as far as the trace reaches into the window.
func TestStreamHugeDepthIsCheap(t *testing.T) {
	cfg := cache.Config{Size: 4096, LineSize: 16, Assoc: 1}
	link := memsys.Transfer{Latency: 6, BytesPerCycle: 16}
	refs := randomRunTrace(xrand.New(12), 5000, 1<<13)
	s, err := NewStream(cfg, link, math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	got := Run(s, refs)
	if got.Misses+got.BufferHits == 0 || len(s.model.used) > (1<<13)/16/64+1 {
		t.Fatalf("result %+v, slot bitset %d words", got, len(s.model.used))
	}
}
