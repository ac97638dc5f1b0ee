package fetch

import (
	"ibsim/internal/cache"
	"ibsim/internal/trace"
)

// Bulk sequential-run replay.
//
// Instruction fetch is overwhelmingly sequential, and most engines in this
// package begin Fetch the same way: count the instruction, probe the L1,
// and — on a hit — do nothing else. A sequential run of k instructions
// inside one cache line therefore needs one real Fetch (which may miss,
// fill, prefetch) followed by k-1 guaranteed L1 probes whose only effects
// are counter and LRU-stamp updates. FetchRuns hoists those probes into
// cache.TouchRun — one tag compare per resident line — so replaying a run
// costs O(lines touched) instead of O(instructions). The results are
// bit-identical to the per-instruction path (pinned by the randomized
// equivalence test and by internal/check's fanout differential).
//
// touchRuns is that loop, written once for every engine whose hits only
// count. Filter fuses the direct-mapped miss path. Bypass, whose hits can
// wait on words still in flight, and Predict, which trains on every line
// change, hits included, replay one line segment at a time (segmentRuns).

// touchRuns replays runs through e, whose L1 is l1 and whose Fetch, on an L1
// hit, only adds one to res.Instructions. cache.TouchRun absorbs the maximal
// all-hit prefix of a run in one call; then the first missing instruction
// takes the full Fetch path (fills, prefetches, stalls) and the loop resumes
// behind it. Instructions are credited before each Fetch, so engines whose
// miss timing reads now = Instructions + StallCycles (MultiStream) observe
// exactly the per-instruction clock. The loop also self-heals when Fetch's
// side effects evict the line it just filled (prefetch wrap-around in a tiny
// cache): TouchRun absorbs nothing and the next instruction refetches.
//
// Most replayed L1s are direct-mapped and runs average only a few
// instructions, so the loop checks cache.DM4 once per batch and calls
// TouchRunDM4 directly instead of paying TouchRun's dispatch per run.
func touchRuns[E interface{ Fetch(addr uint64) }](e E, l1 *cache.Cache, res *Result, runs []trace.Run) {
	dm4 := l1.DM4()
	for _, r := range runs {
		addr, n := r.Start, r.Len
		for n > 0 {
			var t int64
			if dm4 {
				t = l1.TouchRunDM4(addr, n)
			} else {
				t = l1.TouchRun(addr, n, trace.InstrBytes)
			}
			res.Instructions += t
			addr += uint64(t) * trace.InstrBytes
			if n -= t; n == 0 {
				break
			}
			e.Fetch(addr)
			addr += trace.InstrBytes
			n--
		}
	}
}

// FetchRuns implements Engine: the Filter's pass, whose misses all stall
// the same constant. A sector cache's stall depends on the missing word, so
// it runs the shared loop over its own Fetch.
func (b *Blocking) FetchRuns(runs []trace.Run) {
	if b.subBlock == 0 {
		b.f.FetchRuns(runs)
		return
	}
	touchRuns(b, b.f.l1, &b.f.res, runs)
}

// streamBatch bounds the runs the stream engine's Filter takes between
// timing its logged misses, so the log stays one batch long.
const streamBatch = 256

// FetchRuns implements Engine: the Filter's pass, its misses timed batch by
// batch.
func (s *Stream) FetchRuns(runs []trace.Run) {
	for len(runs) > 0 {
		batch := runs[:min(len(runs), streamBatch)]
		runs = runs[len(batch):]
		s.f.FetchRuns(batch)
		s.time()
	}
}

// FetchRuns implements Engine.
func (h *Hierarchy) FetchRuns(runs []trace.Run) { touchRuns(h, h.l1, &h.res, runs) }

// FetchRuns implements Engine.
func (v *Victim) FetchRuns(runs []trace.Run) { touchRuns(v, v.l1, &v.res, runs) }

// FetchRuns implements Engine.
func (m *MultiStream) FetchRuns(runs []trace.Run) { touchRuns(m, m.l1, &m.res, runs) }

// FetchRuns implements Engine, one line segment at a time: the predictor
// trains on every line change, hits included, so the shared loop, which
// absorbs all-hit prefixes across lines, cannot serve it.
func (p *Predict) FetchRuns(runs []trace.Run) { segmentRuns(p, p.lineSize, runs) }

// bulkHits applies k sequential fetches within the line of the last fetch
// in one step when they are all L1 hits: such fetches neither train the
// predictor (the line has not changed) nor touch the buffer. It returns
// false, with no state change, otherwise.
func (p *Predict) bulkHits(addr uint64, k int64) bool {
	if !p.started || addr&^(p.lineSize-1) != p.prevLine || !p.l1.Touch(addr, k) {
		return false
	}
	p.res.Instructions += k
	return true
}

// FetchRuns implements Engine. Bypass is the one engine whose hit path can
// stall (reading a word still streaming into the bypass buffers), so it
// walks each run's line segments and folds a segment's in-group waits into
// a closed form instead of handing the whole prefix to the cache.
func (b *Bypass) FetchRuns(runs []trace.Run) { segmentRuns(b, b.lineSize, runs) }

// segmentRuns replays runs through e one line segment at a time: the
// instructions of one run that fall in one lineSize-byte line. Only a
// segment's first fetch can miss or change what the line's later fetches
// do, so e.bulkHits takes the whole segment when its line is resident (and
// e allows), else the first fetch takes the full Fetch path and bulkHits
// the rest, which that fetch left resident. When Fetch's side effects evict
// the line it filled (prefetch wrap-around in a tiny cache), the rest of
// the segment fetches one instruction at a time.
func segmentRuns[E interface {
	Fetch(addr uint64)
	bulkHits(addr uint64, k int64) bool
}](e E, lineSize uint64, runs []trace.Run) {
	for _, r := range runs {
		addr, n := r.Start, r.Len
		for n > 0 {
			k := n
			if lineEnd := (addr | (lineSize - 1)) + 1; lineEnd != 0 {
				// Instructions whose addresses land in this line; lineEnd
				// == 0 means the top line, which holds the rest of the run
				// (runs never wrap the address space).
				if room := int64((lineEnd - addr + trace.InstrBytes - 1) / trace.InstrBytes); room < k {
					k = room
				}
			}
			if !e.bulkHits(addr, k) {
				e.Fetch(addr)
				if k > 1 && !e.bulkHits(addr+trace.InstrBytes, k-1) {
					for i := int64(1); i < k; i++ {
						e.Fetch(addr + uint64(i)*trace.InstrBytes)
					}
				}
			}
			addr += uint64(k) * trace.InstrBytes
			n -= k
		}
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
