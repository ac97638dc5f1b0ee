package fetch

import (
	"ibsim/internal/trace"
)

// Bulk sequential-run replay.
//
// Instruction fetch is overwhelmingly sequential, and every engine in this
// package begins Fetch the same way: count the instruction, probe the L1,
// and — on a hit — do nothing else (Bypass alone may wait on a line still
// streaming into its buffers). A sequential run of k instructions inside one
// cache line therefore needs one real Fetch (which may miss, fill, prefetch)
// followed by k-1 guaranteed L1 probes whose only effects are counter and
// LRU-stamp updates. FetchRun hoists those k-1 probes into cache.Touch — a
// single tag compare plus arithmetic — so replaying a run costs O(lines
// touched) instead of O(instructions). The results are bit-identical to the
// per-instruction path (pinned by the randomized equivalence test and by
// internal/check's fanout differential).

// RunEngine is an Engine with a bulk sequential-run fast path.
type RunEngine interface {
	Engine
	// FetchRun issues the n sequential instruction fetches start,
	// start+InstrBytes, ..., equivalent to n Fetch calls.
	FetchRun(start uint64, n int64)
	// FetchRuns replays a batch of runs, equivalent to calling FetchRun for
	// each in order. Batching exists so replay drivers pay one dynamic
	// dispatch per batch instead of one per run (runs average only a few
	// instructions, so per-run dispatch is measurable).
	FetchRuns(runs []trace.Run)
}

// RunCompact replays a run-compacted instruction trace through e, using the
// bulk FetchRun path when the engine provides one. It is the run-level
// analogue of Run: RunCompact(e, trace.Compact(refs)) and Run(e, refs)
// produce identical Results.
func RunCompact(e Engine, runs []trace.Run) Result {
	if re, ok := e.(RunEngine); ok {
		re.FetchRuns(runs)
		return re.Result()
	}
	for _, r := range runs {
		addr := r.Start
		for i := int64(0); i < r.Len; i++ {
			e.Fetch(addr)
			addr += trace.InstrBytes
		}
	}
	return e.Result()
}

// Every engine except Bypass does nothing on an L1 hit beyond the counters,
// so its FetchRun is the same shape: cache.TouchRun absorbs the maximal
// all-hit prefix of the run in one call (one tag probe per resident line),
// then the first missing instruction takes the full Fetch path (fills,
// prefetches, stalls) and the loop resumes behind it. Instructions are
// credited before each Fetch so engines whose miss timing reads
// now = Instructions + StallCycles (MultiStream) observe exactly the
// per-instruction clock. The loop also self-heals when Fetch's side effects
// evict the line it just filled (prefetch wrap-around in a tiny cache):
// TouchRun absorbs nothing and the next instruction simply refetches.

// FetchRun implements RunEngine.
func (b *Blocking) FetchRun(start uint64, n int64) {
	if b.subBlock == 0 {
		b.f.FetchRun(start, n)
		return
	}
	addr := start
	for n > 0 {
		t := b.f.l1.TouchRun(addr, n, trace.InstrBytes)
		b.f.res.Instructions += t
		addr += uint64(t) * trace.InstrBytes
		if n -= t; n == 0 {
			return
		}
		b.Fetch(addr)
		addr += trace.InstrBytes
		n--
	}
}

// FetchRun implements RunEngine.
func (s *Stream) FetchRun(start uint64, n int64) {
	s.f.FetchRun(start, n)
	s.time()
}

// FetchRun implements RunEngine.
func (h *Hierarchy) FetchRun(start uint64, n int64) {
	addr := start
	for n > 0 {
		t := h.l1.TouchRun(addr, n, trace.InstrBytes)
		h.res.Instructions += t
		addr += uint64(t) * trace.InstrBytes
		if n -= t; n == 0 {
			return
		}
		h.Fetch(addr)
		addr += trace.InstrBytes
		n--
	}
}

// FetchRun implements RunEngine.
func (v *Victim) FetchRun(start uint64, n int64) {
	addr := start
	for n > 0 {
		t := v.l1.TouchRun(addr, n, trace.InstrBytes)
		v.res.Instructions += t
		addr += uint64(t) * trace.InstrBytes
		if n -= t; n == 0 {
			return
		}
		v.Fetch(addr)
		addr += trace.InstrBytes
		n--
	}
}

// FetchRun implements RunEngine.
func (m *MultiStream) FetchRun(start uint64, n int64) {
	addr := start
	for n > 0 {
		t := m.l1.TouchRun(addr, n, trace.InstrBytes)
		m.res.Instructions += t
		addr += uint64(t) * trace.InstrBytes
		if n -= t; n == 0 {
			return
		}
		m.Fetch(addr)
		addr += trace.InstrBytes
		n--
	}
}

// FetchRun implements RunEngine. Bypass is the one engine whose hit path can
// stall (reading a word still streaming into the bypass buffers), so its
// bulk path walks line segments and folds each segment's in-group waits into
// a closed form instead of handing the whole prefix to the cache.
func (b *Bypass) FetchRun(start uint64, n int64) {
	addr := start
	for n > 0 {
		k := n
		if lineEnd := (addr | (b.lineSize - 1)) + 1; lineEnd != 0 {
			// Instructions whose addresses land in this line; lineEnd == 0
			// means the top line, which holds the rest of the run (runs
			// never wrap the address space).
			if room := int64((lineEnd - addr + trace.InstrBytes - 1) / trace.InstrBytes); room < k {
				k = room
			}
		}
		if !b.bulkHits(addr, k) {
			b.Fetch(addr)
			if k > 1 && !b.bulkHits(addr+trace.InstrBytes, k-1) {
				// Fetch's prefetches evicted the line it filled (tiny cache):
				// fall back to per-instruction fetches for the segment.
				for i := int64(1); i < k; i++ {
					b.Fetch(addr + uint64(i)*trace.InstrBytes)
				}
			}
		}
		addr += uint64(k) * trace.InstrBytes
		n -= k
	}
}

// The batch replays hoist TouchRun's direct-mapped dispatch out of the run
// loop: most replayed L1s are direct-mapped (the paper's baseline), runs
// average only a few instructions, and at that grain the per-run
// FetchRun+TouchRun call pair and the repeated specialization test are a
// measurable fraction of the replay. Checking cache.DM4 once per batch and
// calling TouchRunDM4 directly removes both.

// FetchRuns implements RunEngine: the Filter's fused pass, whose misses
// all stall the same constant.
func (b *Blocking) FetchRuns(runs []trace.Run) {
	if b.subBlock == 0 {
		b.f.FetchRuns(runs)
		return
	}
	for _, r := range runs {
		b.FetchRun(r.Start, r.Len)
	}
}

// streamBatch bounds the runs the stream engine's Filter takes between
// timing its logged misses, so the log stays one batch long.
const streamBatch = 256

// FetchRuns implements RunEngine: the Filter's fused pass, its misses timed
// batch by batch.
func (s *Stream) FetchRuns(runs []trace.Run) {
	for len(runs) > 0 {
		batch := runs[:min(len(runs), streamBatch)]
		runs = runs[len(batch):]
		s.f.FetchRuns(batch)
		s.time()
	}
}

// FetchRuns implements RunEngine.
func (h *Hierarchy) FetchRuns(runs []trace.Run) {
	if h.l1.DM4() {
		for _, r := range runs {
			addr, n := r.Start, r.Len
			for n > 0 {
				t := h.l1.TouchRunDM4(addr, n)
				h.res.Instructions += t
				addr += uint64(t) * trace.InstrBytes
				if n -= t; n == 0 {
					break
				}
				h.Fetch(addr)
				addr += trace.InstrBytes
				n--
			}
		}
		return
	}
	for _, r := range runs {
		h.FetchRun(r.Start, r.Len)
	}
}

// FetchRuns implements RunEngine.
func (v *Victim) FetchRuns(runs []trace.Run) {
	if v.l1.DM4() {
		for _, r := range runs {
			addr, n := r.Start, r.Len
			for n > 0 {
				t := v.l1.TouchRunDM4(addr, n)
				v.res.Instructions += t
				addr += uint64(t) * trace.InstrBytes
				if n -= t; n == 0 {
					break
				}
				v.Fetch(addr)
				addr += trace.InstrBytes
				n--
			}
		}
		return
	}
	for _, r := range runs {
		v.FetchRun(r.Start, r.Len)
	}
}

// FetchRuns implements RunEngine.
func (m *MultiStream) FetchRuns(runs []trace.Run) {
	if m.l1.DM4() {
		for _, r := range runs {
			addr, n := r.Start, r.Len
			for n > 0 {
				t := m.l1.TouchRunDM4(addr, n)
				m.res.Instructions += t
				addr += uint64(t) * trace.InstrBytes
				if n -= t; n == 0 {
					break
				}
				m.Fetch(addr)
				addr += trace.InstrBytes
				n--
			}
		}
		return
	}
	for _, r := range runs {
		m.FetchRun(r.Start, r.Len)
	}
}

// FetchRuns implements RunEngine.
func (b *Bypass) FetchRuns(runs []trace.Run) {
	for _, r := range runs {
		b.FetchRun(r.Start, r.Len)
	}
}

// bulkHits applies k sequential same-line fetches in one step when they are
// all L1 hits, including any wait for words still arriving in the current
// refill group; it returns false (with no state change) when the line is not
// resident.
func (b *Bypass) bulkHits(addr uint64, k int64) bool {
	if !b.l1.Touch(addr, k) {
		return false
	}
	b.res.Instructions += k
	if b.groupLines > 0 {
		base := b.groupBase
		end := base + uint64(b.groupLines)*b.lineSize
		if addr >= base && addr < end {
			// now() already includes the k instructions credited above; back
			// them out to recover the clock at the segment's first fetch.
			now0 := b.now() - k
			// Closed form for the k sequential in-group waits. Instruction j
			// (j = 0..k-1) executes at now0+j+1 plus earlier waits and may
			// stall until arrive(j) = groupStart + DeliveryCycle(d0 + j*4).
			// Unrolling S(j+1) = max(S(j), arrive(j) - now0 - (j+1)) gives
			// S(k) = max(0, max_j(arrive(j)-j) - 1 - now0), and arrive(j)-j
			// is monotone in j for every bandwidth (delivery offsets grow by
			// 4/BytesPerCycle per step), so the endpoints bound the max.
			d0 := int64(addr - base)
			g0 := b.groupStart + int64(b.link.DeliveryCycle(int(d0)))
			gk := b.groupStart + int64(b.link.DeliveryCycle(int(d0+(k-1)*trace.InstrBytes))) - (k - 1)
			if gk > g0 {
				g0 = gk
			}
			if s := g0 - 1 - now0; s > 0 {
				b.res.StallCycles += s
			}
		}
	}
	return true
}
