package fetch

import (
	"math/bits"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
)

// Content classes: filter once, time many.
//
// Many engines differ only in how they time an L1 miss, not in what their L1
// holds. Blocking(g, N) and Bypass(g, N) both probe the L1 once per fetch
// and, on a miss, fill the missing line and the N lines after it; Stream(g,
// d) fills exactly the missing line on every L1 miss, whether or not its
// buffer held it, at every depth. An engine's content class is that L1
// behavior — geometry plus lines filled per miss — and engines of one class
// hold identical L1 contents after any trace. A replay driver can therefore
// run each class's L1 once and hand the class's misses to every member's
// timing model (internal/replay does):
//
//   - Blocking(g, N) is a Filter — the class's bare L1 pass — plus a stall
//     of FillCycles(line·(1+N)) per miss, so its Result follows from the
//     class's miss count alone, for every N and link.
//   - Stream(g, d) is a Filter plus a timing model that needs each miss's
//     position and line (MissEvent); the model keeps O(1) state beside a
//     bitset of consumed buffer slots.
//   - Bypass(g, N) also waits on hits to words still in flight, so it cannot
//     be split: it leads its class as a whole engine, logging its misses.
//
// Blocking and Stream expose the split through Split (class, own L1 pass,
// timing); Bypass and Filter, which can run a class's pass, through Class
// and MissLog.
//
// Sector geometries (offset-dependent partial fills), Victim, Hierarchy,
// MultiStream and Predict have no class and always run whole.

// Class is a content class: an L1 geometry plus the number of lines filled
// per miss (the missing line and the ones after it). Classes are comparable,
// so they key maps.
type Class struct {
	Geom  cache.Config
	Lines int
}

// MissEvent is one L1 miss of a content class.
type MissEvent struct {
	// Index is the missing fetch's position among the instructions the
	// class has fetched, counting from 0.
	Index int64
	// Line is the missing line's address: the fetch address with its line
	// offset cleared.
	Line uint64
}

// Timing is an engine's timing model: it turns its class's L1 activity into
// the engine's Result. A model that needs every miss, not just the count,
// also has a Misses([]MissEvent) method taking the class's misses in trace
// order.
type Timing interface {
	// Result returns the engine's counters once its class has fetched
	// instructions instructions, misses of which missed the L1.
	Result(instructions, misses int64) Result
}

// MissLog collects a class's misses for its event timings. The consumer
// drains Events (and truncates it) between batches, so the log holds one
// batch at a time, never a whole trace.
type MissLog struct {
	On     bool
	Events []MissEvent
}

func (l *MissLog) add(index int64, line uint64) {
	if l.On {
		l.Events = append(l.Events, MissEvent{Index: index, Line: line})
	}
}

// Filter is a content class's bare L1 pass: one probe per fetch and, on a
// miss, fills of the missing line and the lines after it. It times nothing —
// its Result carries only Instructions and Misses — and can run its class's
// pass in a shared replay.
type Filter struct {
	l1       tags
	lineSize uint64
	extra    int // lines filled after the missing one
	res      Result
	log      MissLog
}

func newFilter(cfg cache.Config, lines int) (Filter, error) {
	l1, err := newTags(cfg)
	if err != nil {
		return Filter{}, err
	}
	return Filter{l1: l1, lineSize: uint64(cfg.LineSize), extra: lines - 1}, nil
}

// Fetch implements Engine.
func (f *Filter) Fetch(addr uint64) {
	f.res.Instructions++
	if !f.l1.lookup(addr) {
		f.miss(f.res.Instructions-1, addr&^(f.lineSize-1))
	}
}

// miss counts and logs an L1 miss of the fetch at position index to line,
// and fills line and the lines after it.
func (f *Filter) miss(index int64, line uint64) {
	f.res.Misses++
	f.log.add(index, line)
	f.l1.fill(line, 1+f.extra)
}

// Result implements Engine.
func (f *Filter) Result() Result { return f.res }

// Class reports the pass's content class; ok is false for sector
// geometries, whose fills depend on the missing word's offset.
func (f *Filter) Class() (Class, bool) {
	return Class{Geom: f.l1.cfg, Lines: 1 + f.extra}, f.l1.cfg.SubBlock == 0
}

// MissLog returns the pass's miss log.
func (f *Filter) MissLog() *MissLog { return &f.log }

// FetchRuns implements Engine. A cache.Cache L1 takes the shared loop. On
// line keys, a miss whose fills leave the missing line resident makes the
// line's later fetches hits, so only a run's first fetch in each line can
// miss and the pass probes each line of a run once. A class whose fills
// evict the missing line (more lines per miss than sets) fetches one
// instruction at a time.
func (f *Filter) FetchRuns(runs []trace.Run) {
	switch {
	case f.l1.c != nil:
		touchRuns(f, f.l1.c, &f.res, runs)
	case 1+f.extra > len(f.l1.keys):
		fetchEach(f, runs)
	default:
		f.lineRuns(runs)
	}
}

// lineRuns walks each run's lines, first to last, probing and filling the
// line keys inline. A miss is logged at the run's first instruction in the
// line: the first at or above the line's start, since runs may start at
// any byte.
func (f *Filter) lineRuns(runs []trace.Run) {
	mask := uint64(len(f.l1.keys) - 1)
	keys := f.l1.keys[:mask+1] // la&mask needs no bounds check
	shift := f.l1.shift
	for _, r := range runs {
		first := r.Start >> shift
		last := (r.Start + uint64(r.Len-1)*trace.InstrBytes) >> shift
		// Line numbers stay below 2^62 (lines hold an instruction), so la++
		// cannot wrap.
		for la := first; la <= last; la++ {
			if keys[la&mask] != la+1 {
				var i int64
				if la != first {
					i = int64((la<<shift - r.Start + trace.InstrBytes - 1) / trace.InstrBytes)
				}
				f.miss(f.res.Instructions+i, la<<shift)
			}
		}
		f.res.Instructions += r.Len
	}
}

// tags is the L1 tag store of a Filter or Bypass engine. A direct-mapped,
// non-sector, LRU geometry whose lines hold an instruction keeps one line
// key per set: the line number plus one, 0 for an empty set. It has no
// stamps, clock or counters — a one-way set has a single replacement
// candidate, and the engines count for themselves — as the sweep's stacks
// have none. Any other geometry is a cache.Cache, the general simulator and
// the keys' oracle.
type tags struct {
	cfg   cache.Config // normalized
	c     *cache.Cache // nil on line keys
	keys  []uint64     // one line key per set
	shift uint         // log2 of the line size
}

func newTags(cfg cache.Config) (tags, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return tags{}, err
	}
	if cfg.Assoc != 1 || cfg.SubBlock != 0 || cfg.Replacement != cache.LRU || cfg.LineSize < trace.InstrBytes {
		c, err := cache.New(cfg)
		return tags{cfg: cfg, c: c}, err
	}
	return tags{cfg: cfg, keys: make([]uint64, cfg.Sets()), shift: uint(bits.TrailingZeros(uint(cfg.LineSize)))}, nil
}

// lookup probes addr's line: a cache.Cache Lookup, so a hit refreshes the
// line's recency.
func (t *tags) lookup(addr uint64) bool {
	if t.c != nil {
		return t.c.Lookup(addr)
	}
	la := addr >> t.shift
	return t.keys[la&uint64(len(t.keys)-1)] == la+1
}

// touch applies n fetches to addr's line when it is resident (cache.Touch),
// and reports whether it was.
func (t *tags) touch(addr uint64, n int64) bool {
	if t.c != nil {
		return t.c.Touch(addr, n)
	}
	return t.lookup(addr)
}

// fill fills the n lines from the line at byte address line, whose
// addresses wrap at the top of the address space.
func (t *tags) fill(line uint64, n int) {
	size := uint64(t.cfg.LineSize)
	for i := 0; i < n; i++ {
		a := line + uint64(i)*size
		if t.c != nil {
			t.c.Fill(a)
			continue
		}
		la := a >> t.shift
		t.keys[la&uint64(len(t.keys)-1)] = la + 1
	}
}

// blockingTiming is the blocking engine's timing: every miss stalls for one
// fill of the missing and prefetched lines.
type blockingTiming struct{ stall int64 }

// Result implements Timing.
func (t blockingTiming) Result(instructions, misses int64) Result {
	return Result{Instructions: instructions, Misses: misses, StallCycles: misses * t.stall}
}

// streamTiming is the stream buffer's timing model (see Stream). A miss in
// both structures restarts the stream at its line; the stream then holds
// slots 1..depth, slot k being the k-th line after the head, requested one
// per cycle so that it arrives k cycles after the restart completed. An L1
// miss on a slot line not yet consumed is a buffer hit. The state is the
// head line, the completion cycle, and a bitset of consumed slots that grows
// only as far as slots are consumed.
type streamTiming struct {
	lineShift uint
	depth     uint64
	missStall int64
	window    uint64   // depth once a stream is live; 0 before the first miss
	head      uint64   // line of the miss that started the stream
	issued    int64    // cycle that miss completed; slot k arrives at issued+k
	used      []uint64 // bit k-1: slot k consumed since the restart
	dirty     int      // words of used that may hold set bits
	res       Result   // Misses, BufferHits and StallCycles
}

func newStreamTiming(lineSize int, link memsys.Transfer, depth int) *streamTiming {
	t := &streamTiming{depth: uint64(depth), missStall: int64(link.FillCycles(lineSize))}
	for v := lineSize; v > 1; v >>= 1 {
		t.lineShift++
	}
	return t
}

// Misses times a batch of the class's misses, in trace order.
func (t *streamTiming) Misses(events []MissEvent) {
	for _, ev := range events {
		t.miss(ev.Index, ev.Line)
	}
}

// miss times one L1 miss of the fetch at position index to line.
func (t *streamTiming) miss(index int64, line uint64) {
	now := index + 1 + t.res.StallCycles
	// Unsigned arithmetic: a window that wraps the top of the address space
	// still numbers its slots 1..depth.
	if k := (line - t.head) >> t.lineShift; k-1 < t.window {
		w, bit := int((k-1)>>6), uint64(1)<<((k-1)&63)
		if w >= len(t.used) || t.used[w]&bit == 0 {
			// Stream-buffer hit: wait for the line if it is still in flight;
			// it moves to the I-cache (the class's fill).
			if arrive := t.issued + int64(k); arrive > now {
				t.res.StallCycles += arrive - now
			}
			t.res.BufferHits++
			if w >= len(t.used) {
				t.used = append(t.used, make([]uint64, w+1-len(t.used))...)
			}
			t.used[w] |= bit
			t.dirty = max(t.dirty, w+1)
			return
		}
	}
	// Miss in both: pay the full latency, cancel the stream, restart it.
	t.res.Misses++
	t.res.StallCycles += t.missStall
	t.issued = now + t.missStall
	t.head = line
	t.window = t.depth
	clear(t.used[:t.dirty])
	t.dirty = 0
}

// Result implements Timing.
func (t *streamTiming) Result(instructions, _ int64) Result {
	r := t.res
	r.Instructions = instructions
	return r
}
