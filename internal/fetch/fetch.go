// Package fetch implements the instruction-fetch engines evaluated in the
// paper's Section 5: a blocking L1 frontend with optional sequential
// prefetch-on-miss (Table 6), bypass buffers (Table 7), and a pipelined
// memory system with stream buffers (Table 8).
//
// Every engine consumes a stream of instruction addresses and accounts stall
// cycles against the paper's CPI model: the machine is single-issue with a
// base CPI of 1, time advances one cycle per instruction plus accumulated
// stalls, and CPIinstr = stall cycles / instructions. The L2 contribution is
// simulated separately (the paper: "We determined the L1 contribution by
// simulating an L1 cache backed by a perfect L2 cache... L2 contribution is
// determined by simulating an L2 cache backed by main memory") — use a
// Blocking engine with the L2 geometry and the baseline memory link for
// that, and add the two CPIinstr values for the total.
//
// An engine's L1 is a cache.Cache, the general simulator, except where a
// content class's pass runs on the paper's dominant geometry: the L1 of a
// Filter (and so of Blocking and Stream) or of a Bypass engine that is
// direct-mapped, non-sector and LRU keeps one line key per set, with no
// stamps, clock or counters, and is tested against cache.Cache references.
package fetch

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
)

// Result accumulates an engine's activity.
type Result struct {
	// Instructions is the number of instruction fetches issued.
	Instructions int64
	// Misses counts fetches that missed the L1 (and, for stream-buffer
	// engines, also missed the buffer).
	Misses int64
	// BufferHits counts fetches satisfied by a stream buffer.
	BufferHits int64
	// StallCycles is the total fetch-stall time.
	StallCycles int64
}

// CPIinstr returns stall cycles per instruction — the paper's CPIinstr.
func (r Result) CPIinstr() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.Instructions)
}

// MPI returns misses per instruction.
func (r Result) MPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Instructions)
}

// Engine is a fetch-stage simulator.
type Engine interface {
	// Fetch issues one instruction fetch.
	Fetch(addr uint64)
	// FetchRuns issues every instruction of runs in order, equivalent to
	// one Fetch per instruction. Replay drivers hand runs over in batches,
	// so they pay one dynamic dispatch per batch instead of one per run
	// (runs average only a few instructions).
	FetchRuns(runs []trace.Run)
	// Result returns the accumulated counters.
	Result() Result
}

// Run feeds every instruction fetch in refs to e and returns the result.
// Non-instruction references are ignored, matching the paper's Section 5
// methodology ("we only consider instruction references").
func Run(e Engine, refs []trace.Ref) Result {
	for _, r := range refs {
		if r.Kind == trace.IFetch {
			e.Fetch(r.Addr)
		}
	}
	return e.Result()
}

// BlockingResult reconstructs, analytically, the Result a prefetch-free
// Blocking engine produces from its miss count alone: with no prefetching
// every miss stalls the processor for exactly one full line fill, so
// StallCycles = Misses × link.FillCycles(lineSize) and no per-reference
// simulation is needed. The sweep engine (internal/sweep) uses this to turn
// a one-pass miss matrix into the CPIinstr of every grid cell; the
// equivalence with fetch.Run over a NewBlocking engine is pinned by tests
// and by internal/check's sweep differential.
func BlockingResult(instructions, misses int64, lineSize int, link memsys.Transfer) Result {
	return blockingTiming{stall: int64(link.FillCycles(lineSize))}.Result(instructions, misses)
}

// Blocking is the baseline engine: on an L1 miss the processor stalls until
// the missing line — and all prefetched lines, if sequential
// prefetch-on-miss is enabled — have been written into the cache (Table 6's
// execution model: "the processor must stall until both the miss and the
// prefetches are returned to the cache. Prefetches are not cancelled.").
// Its L1 is a Filter, and every miss stalls the same FillCycles(line·(1+N)),
// so its Result follows from the miss count.
type Blocking struct {
	f        Filter
	link     memsys.Transfer
	stall    int64  // cycles per miss; 0 for sector caches
	subBlock uint64 // non-zero for sector caches
	sector   int64  // sector caches: the partial-fill stalls so far
}

// NewBlocking builds a blocking engine with n prefetched lines (0 disables
// prefetching).
func NewBlocking(cfg cache.Config, link memsys.Transfer, n int) (*Blocking, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("fetch: negative prefetch count %d", n)
	}
	if cfg.SubBlock != 0 && n != 0 {
		return nil, fmt.Errorf("fetch: sector caches and prefetch-on-miss are mutually exclusive")
	}
	f, err := newFilter(cfg, 1+n)
	if err != nil {
		return nil, err
	}
	b := &Blocking{f: f, link: link, subBlock: uint64(cfg.SubBlock)}
	if b.subBlock == 0 {
		b.stall = int64(link.FillCycles(cfg.LineSize * (1 + n)))
	}
	return b, nil
}

// Fetch implements Engine.
func (b *Blocking) Fetch(addr uint64) {
	if b.subBlock == 0 {
		b.f.Fetch(addr)
		return
	}
	f := &b.f
	f.res.Instructions++
	if f.l1.c.Lookup(addr) {
		return
	}
	f.res.Misses++
	// Sector cache: only the missing sub-block and all subsequent sub-blocks
	// in the line are transferred (the paper's sub-block refill policy); the
	// stall covers just those bytes.
	offset := (addr &^ (b.subBlock - 1)) & (f.lineSize - 1)
	b.sector += int64(b.link.FillCycles(int(f.lineSize - offset)))
	f.l1.c.Fill(addr)
}

// Result implements Engine.
func (b *Blocking) Result() Result {
	r := blockingTiming{stall: b.stall}.Result(b.f.res.Instructions, b.f.res.Misses)
	r.StallCycles += b.sector
	return r
}

// Split returns the engine's content class, its own L1 pass and its timing
// over that pass; a shared replay may run any member's pass as the class's.
// ok is false for sector caches, which have no class and run whole.
func (b *Blocking) Split() (c Class, pass *Filter, t Timing, ok bool) {
	c, ok = b.f.Class()
	return c, &b.f, blockingTiming{stall: b.stall}, ok
}

// Bypass is the prefetch+bypass engine of Table 7: the missing line (and N
// sequentially prefetched lines) stream into dual-ported bypass buffers, and
// the processor resumes as soon as the missing *word* arrives. All fetched
// lines are cached unconditionally (the paper found use-only caching of
// prefetched lines hurts at small N and line sizes), so its L1 is
// Blocking(g, N)'s; but its hits can wait on words still in flight, so it
// leads its content class rather than following it.
type Bypass struct {
	l1       tags
	link     memsys.Transfer
	prefetch int
	lineSize uint64

	// In-flight refill group: lines [groupBase, groupBase+groupLines) were
	// requested at cycle groupStart; the byte at offset o from groupBase
	// arrives at groupStart + link.DeliveryCycle(o).
	groupBase  uint64
	groupLines int
	groupStart int64
	busyUntil  int64

	res Result
	log MissLog
}

// NewBypass builds a bypass engine with n prefetched lines.
func NewBypass(cfg cache.Config, link memsys.Transfer, n int) (*Bypass, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("fetch: negative prefetch count %d", n)
	}
	l1, err := newTags(cfg)
	if err != nil {
		return nil, err
	}
	return &Bypass{l1: l1, link: link, prefetch: n, lineSize: uint64(cfg.LineSize)}, nil
}

// now returns the current cycle under the CPI-1 base model.
func (b *Bypass) now() int64 { return b.res.Instructions + b.res.StallCycles }

// Fetch implements Engine.
func (b *Bypass) Fetch(addr uint64) {
	b.res.Instructions++
	now := b.now()
	if b.l1.lookup(addr) {
		// The line may still be streaming into the bypass buffers: reading a
		// word that has not arrived yet waits for it.
		if b.groupLines > 0 {
			base := b.groupBase
			end := base + uint64(b.groupLines)*b.lineSize
			if addr >= base && addr < end {
				arrive := b.groupStart + int64(b.link.DeliveryCycle(int(addr-base)))
				if arrive > now {
					b.res.StallCycles += arrive - now
				}
			}
		}
		return
	}
	b.res.Misses++
	start := now
	if b.busyUntil > start {
		// Previous refill still owns the memory port.
		start = b.busyUntil
	}
	lineBase := addr &^ (b.lineSize - 1)
	b.log.add(b.res.Instructions-1, lineBase)
	arrive := start + int64(b.link.DeliveryCycle(int(addr-lineBase)))
	b.res.StallCycles += arrive - now

	lines := 1 + b.prefetch
	b.groupBase = lineBase
	b.groupLines = lines
	b.groupStart = start
	b.busyUntil = start + int64(b.link.FillCycles(int(b.lineSize)*lines))
	b.l1.fill(lineBase, lines)
}

// Result implements Engine.
func (b *Bypass) Result() Result { return b.res }

// Class reports the engine's content class; ok is false for sector caches.
func (b *Bypass) Class() (Class, bool) {
	return Class{Geom: b.l1.cfg, Lines: 1 + b.prefetch}, b.l1.cfg.SubBlock == 0
}

// MissLog returns the engine's miss log: the class's misses, while On.
func (b *Bypass) MissLog() *MissLog { return &b.log }

// Stream is the pipelined memory system with a stream buffer (Table 8,
// following Jouppi): the L2 accepts a request every cycle; on a miss in both
// the I-cache and the stream buffer the processor waits one full latency for
// the missing line, and in the N cycles following the miss request the next
// N sequential lines are also requested, arriving one per cycle behind it.
// Buffered lines move to the I-cache free of charge (the Table 8 note) when
// the processor uses them; the buffer is NOT topped up on consumption — a
// long sequential run therefore pays one full miss every N+1 lines, which is
// why the paper's gains keep accruing out to 18 lines. A miss in both
// structures cancels outstanding prefetches and restarts the stream at the
// new address.
//
// Every L1 miss fills exactly the missing line, buffered or not, so the L1
// is a one-line Filter at every depth, and the buffer is a timing model
// over that Filter's misses (streamTiming).
type Stream struct {
	f     Filter // logs every miss for the model
	model *streamTiming
}

// NewStream builds a pipelined stream-buffer engine holding depth lines
// (depth 0 degenerates to a blocking cache with no prefetch). The paper sets
// the L1 line size equal to the per-cycle bandwidth so the pipeline can
// accept a request every cycle; NewStream enforces LineSize <=
// link.BytesPerCycle × 2 to keep the one-line-per-cycle arrival model honest.
func NewStream(cfg cache.Config, link memsys.Transfer, depth int) (*Stream, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if depth < 0 {
		return nil, fmt.Errorf("fetch: negative stream-buffer depth %d", depth)
	}
	if cfg.LineSize > 2*link.BytesPerCycle {
		return nil, fmt.Errorf("fetch: stream engine needs line size (%d) <= 2x bandwidth (%d B/cyc)",
			cfg.LineSize, link.BytesPerCycle)
	}
	f, err := newFilter(cfg, 1)
	if err != nil {
		return nil, err
	}
	f.log.On = true
	return &Stream{f: f, model: newStreamTiming(cfg.LineSize, link, depth)}, nil
}

// Fetch implements Engine.
func (s *Stream) Fetch(addr uint64) {
	s.f.Fetch(addr)
	s.time()
}

// time hands the Filter's logged misses to the model.
func (s *Stream) time() {
	s.model.Misses(s.f.log.Events)
	s.f.log.Events = s.f.log.Events[:0]
}

// Result implements Engine.
func (s *Stream) Result() Result { return s.model.Result(s.f.res.Instructions, s.f.res.Misses) }

// Split returns the engine's content class, its own L1 pass and its timing
// model, which takes the pass's misses; see Blocking.Split.
func (s *Stream) Split() (c Class, pass *Filter, t Timing, ok bool) {
	c, ok = s.f.Class()
	return c, &s.f, s.model, ok
}
