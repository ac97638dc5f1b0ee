// Package cache implements the set-associative cache models at the heart of
// every experiment in the paper: configurable size, line size, associativity,
// replacement policy, and optional sub-block (sector) allocation.
//
// The model is a behavioral tag store: it tracks which lines are resident and
// answers hit/miss, leaving all *timing* (latency, bandwidth, fill, prefetch,
// bypass) to package fetch/memsys. Addresses are whatever the caller says
// they are — pass virtual addresses for a virtually-indexed cache, or
// translate through internal/vm first for a physically-indexed one (that
// distinction is the entire subject of the paper's Figure 5).
package cache

import (
	"fmt"

	"ibsim/internal/xrand"
)

// Replacement selects a victim-choice policy.
type Replacement uint8

const (
	// LRU evicts the least-recently-used way. All paper experiments use LRU.
	LRU Replacement = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// Random evicts a uniformly random way.
	Random
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// Config describes a cache geometry.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the line (block) size in bytes; a power of two.
	LineSize int
	// Assoc is the set associativity. 0 means fully associative.
	Assoc int
	// Replacement is the victim-choice policy (default LRU).
	Replacement Replacement
	// SubBlock, if non-zero, enables sector allocation with sub-blocks of
	// this many bytes: tags cover LineSize but validity is tracked per
	// sub-block (the paper's footnote on 64-byte lines with 16-byte
	// sub-block allocation). Must divide LineSize.
	SubBlock int
	// Seed seeds the Random replacement policy. Ignored for LRU/FIFO.
	Seed uint64
}

// Lines returns the number of lines the configuration holds.
func (c Config) Lines() int { return c.Size / c.LineSize }

// Sets returns the number of sets (after resolving Assoc == 0 to fully
// associative).
func (c Config) Sets() int {
	a := c.Assoc
	if a == 0 {
		a = c.Lines()
	}
	return c.Lines() / a
}

// String renders the geometry in the paper's style, e.g.
// "8KB/32B/direct-mapped" or "64KB/32B/8-way".
func (c Config) String() string {
	assoc := "fully-assoc"
	switch {
	case c.Assoc == 1:
		assoc = "direct-mapped"
	case c.Assoc > 1:
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	size := fmt.Sprintf("%dB", c.Size)
	if c.Size%1024 == 0 {
		size = fmt.Sprintf("%dKB", c.Size/1024)
	}
	return fmt.Sprintf("%s/%dB/%s", size, c.LineSize, assoc)
}

// validate checks the geometry and returns a normalized copy (Assoc == 0
// resolved to the line count).
func (c Config) validate() (Config, error) {
	if c.Size <= 0 {
		return c, fmt.Errorf("cache: size %d must be positive", c.Size)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return c, fmt.Errorf("cache: line size %d must be a positive power of two", c.LineSize)
	}
	if c.Size%c.LineSize != 0 {
		return c, fmt.Errorf("cache: size %d not a multiple of line size %d", c.Size, c.LineSize)
	}
	lines := c.Size / c.LineSize
	if c.Assoc == 0 {
		c.Assoc = lines
	}
	if c.Assoc < 0 || c.Assoc > lines {
		return c, fmt.Errorf("cache: associativity %d out of range [1, %d]", c.Assoc, lines)
	}
	if lines%c.Assoc != 0 {
		return c, fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return c, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if c.SubBlock != 0 {
		if c.SubBlock <= 0 || c.SubBlock&(c.SubBlock-1) != 0 {
			return c, fmt.Errorf("cache: sub-block %d must be a positive power of two", c.SubBlock)
		}
		if c.LineSize%c.SubBlock != 0 {
			return c, fmt.Errorf("cache: sub-block %d must divide line size %d", c.SubBlock, c.LineSize)
		}
		if c.LineSize/c.SubBlock > 64 {
			return c, fmt.Errorf("cache: more than 64 sub-blocks per line unsupported")
		}
	}
	return c, nil
}

// Stats counts cache activity. Hits+Misses == Accesses; sub-block caches
// additionally split misses into full line misses and sub-block-only misses
// (tag present, sub-block invalid).
type Stats struct {
	Accesses      int64
	Hits          int64
	Misses        int64
	SubMisses     int64 // misses where the tag matched but sub-block was invalid
	Fills         int64
	Evictions     int64
	Invalidations int64
}

// MissRatio returns Misses/Accesses, or 0 when no accesses occurred.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// way holds one cache line's bookkeeping.
type way struct {
	tag   uint64
	valid bool
	// stamp orders ways for LRU (updated on use) or FIFO (set on fill).
	stamp uint64
	// subValid is the per-sub-block validity mask for sector caches; for
	// non-sector caches it is unused.
	subValid uint64
}

// Cache is a set-associative tag store.
type Cache struct {
	cfg        Config
	lineShift  uint
	setShift   uint
	setMask    uint64
	subShift   uint
	subPerLine uint
	// assoc and isLRU mirror cfg.Assoc and cfg.Replacement == LRU, hoisted
	// into the hot path: Access/Lookup run once per simulated instruction
	// across every experiment, and the flattened fields keep the per-access
	// work to a handful of register operations with zero allocations (the
	// package benchmarks pin that).
	assoc int
	isLRU bool
	// dm4 marks the dominant replay shape — direct-mapped, non-sector, LRU —
	// for which Access, AccessN, TouchRun and Touch take a fully inlined
	// fast path.
	dm4   bool
	ways  []way // sets × assoc, row-major; sized once at construction
	clock uint64
	rng   *xrand.Source
	stats Stats
}

// New validates cfg and returns an empty cache. The tag store is allocated
// once here, at its exact final size — no access ever grows or allocates.
func New(cfg Config) (*Cache, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: log2(uint64(cfg.LineSize)),
		setShift:  log2(uint64(cfg.Sets())),
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
		isLRU:     cfg.Replacement == LRU,
		ways:      make([]way, cfg.Lines()),
	}
	c.dm4 = c.assoc == 1 && cfg.SubBlock == 0 && c.isLRU
	if cfg.SubBlock != 0 {
		c.subShift = log2(uint64(cfg.SubBlock))
		c.subPerLine = uint(cfg.LineSize / cfg.SubBlock)
	}
	if cfg.Replacement == Random {
		c.rng = xrand.New(cfg.Seed ^ 0xcafef00d)
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and literals with known-good
// geometry.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the (normalized) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset empties the cache and clears the counters.
func (c *Cache) Reset() {
	for i := range c.ways {
		c.ways[i] = way{}
	}
	c.stats = Stats{}
	c.clock = 0
}

// lineAddr returns the line-granular address.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// setIndex returns the set an address maps to.
func (c *Cache) setIndex(lineAddr uint64) uint64 { return lineAddr & c.setMask }

// tagOf returns the tag for a line address.
func (c *Cache) tagOf(lineAddr uint64) uint64 { return lineAddr >> c.setShift }

// subBit returns the sub-block validity bit for addr, or ^0 (all ones) for
// non-sector caches so that any valid line satisfies the check.
func (c *Cache) subBit(addr uint64) uint64 {
	if c.subPerLine == 0 {
		return ^uint64(0)
	}
	sub := (addr >> c.subShift) & uint64(c.subPerLine-1)
	return 1 << sub
}

// find returns the index into c.ways of the way holding lineAddr, or -1.
func (c *Cache) find(lineAddr uint64) int {
	set := lineAddr & c.setMask
	tag := lineAddr >> c.setShift
	base := int(set) * c.assoc
	if c.assoc == 1 {
		// Direct-mapped fast path — the paper's dominant geometry: one tag
		// compare, no way loop.
		w := &c.ways[base]
		if w.valid && w.tag == tag {
			return base
		}
		return -1
	}
	for i := 0; i < c.assoc; i++ {
		w := &c.ways[base+i]
		if w.valid && w.tag == tag {
			return base + i
		}
	}
	return -1
}

// Access performs a demand reference: on a hit the replacement state is
// updated; on a miss the line is filled (evicting a victim if needed). It
// returns true on hit. This is the whole-cache convenience used by miss-ratio
// experiments; timing-aware engines use Lookup + Fill to control fill policy.
func (c *Cache) Access(addr uint64) bool {
	if c.dm4 {
		return c.accessDM4(addr)
	}
	hit, _ := c.access(addr)
	return hit
}

// access is Access for any geometry, also returning the way that holds
// addr's line afterwards.
func (c *Cache) access(addr uint64) (bool, *way) {
	c.stats.Accesses++
	c.clock++
	la := c.lineAddr(addr)
	if i := c.find(la); i >= 0 {
		w := &c.ways[i]
		if c.subPerLine == 0 || w.subValid&c.subBit(addr) != 0 {
			c.stats.Hits++
			if c.isLRU {
				w.stamp = c.clock
			}
			return true, w
		}
		// Sector cache: tag present but sub-block invalid. Fill this and all
		// subsequent sub-blocks (the paper's sub-block refill policy).
		c.stats.Misses++
		c.stats.SubMisses++
		c.fillSubBlocks(w, addr)
		if c.isLRU {
			w.stamp = c.clock
		}
		return false, w
	}
	c.stats.Misses++
	w, _, _ := c.fill(la, addr)
	return false, w
}

// accessDM4 is Access for caches where dm4 holds. Like Touch's
// direct-mapped path it skips the hit's LRU stamp store — a one-way set has
// a single replacement candidate, so stamps order nothing — and it fills a
// missing line in place, as fill would with one way: hit/miss behavior,
// stats and the resident lines are identical to the general path.
func (c *Cache) accessDM4(addr uint64) bool {
	c.stats.Accesses++
	c.clock++
	la := addr >> c.lineShift
	w := &c.ways[la&c.setMask]
	if w.valid && w.tag == la>>c.setShift {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	if w.valid {
		c.stats.Evictions++
	}
	*w = way{tag: la >> c.setShift, valid: true, stamp: c.clock}
	c.stats.Fills++
	return false
}

// AccessN performs n demand references to addr in one step, exactly
// Access(addr) followed by Touch(addr, n-1): the first reference hits or
// misses (and fills), and the other n-1 hit the line it leaves resident.
// It returns whether the first reference hit. It probes the set once,
// where testing the hit case first with Touch, then Access and Touch on a
// miss, would probe it up to three times. n <= 0 changes nothing.
func (c *Cache) AccessN(addr uint64, n int64) bool {
	if n <= 0 {
		return true
	}
	var hit bool
	if c.dm4 {
		// Touch's direct-mapped path sets no stamp, so neither does this.
		hit = c.accessDM4(addr)
	} else {
		la := addr >> c.lineShift
		tag := la >> c.setShift
		base := int(la&c.setMask) * c.assoc
		set := c.ways[base : base+c.assoc]
		for i := range set {
			// A tag sits in at most one way of its set, so a match whose
			// sub-block is invalid leaves the loop for access's sub-miss.
			if w := &set[i]; w.valid && w.tag == tag && (c.subPerLine == 0 || w.subValid&c.subBit(addr) != 0) {
				c.clock += uint64(n)
				c.stats.Accesses += n
				c.stats.Hits += n
				if c.isLRU {
					w.stamp = c.clock
				}
				return true
			}
		}
		var w *way
		hit, w = c.access(addr)
		if c.isLRU {
			w.stamp = c.clock + uint64(n-1)
		}
	}
	c.clock += uint64(n - 1)
	c.stats.Accesses += n - 1
	c.stats.Hits += n - 1
	return hit
}

// Lookup checks residency and updates replacement state on a hit, but does
// NOT fill on a miss. Use with Fill to implement engines that cache lines
// conditionally (stream buffers, use-only prefetch caching).
func (c *Cache) Lookup(addr uint64) bool {
	c.stats.Accesses++
	c.clock++
	la := c.lineAddr(addr)
	if i := c.find(la); i >= 0 {
		w := &c.ways[i]
		if c.subPerLine == 0 || w.subValid&c.subBit(addr) != 0 {
			c.stats.Hits++
			if c.isLRU {
				w.stamp = c.clock
			}
			return true
		}
		c.stats.Misses++
		c.stats.SubMisses++
		return false
	}
	c.stats.Misses++
	return false
}

// Touch applies n consecutive Lookup hits to the resident address in one
// step: the clock advances n ticks, Accesses and Hits grow by n, and the
// line's LRU stamp lands on the final tick — bit-identical to calling
// Lookup(addr) n times when every call would hit. It is the bulk-replay fast
// path for sequential instruction runs: the n instructions sharing a line
// (and, for sector caches, a sub-block suffix — sub-block fills are
// suffix-closed, so residency of the lowest address implies the rest) need
// one tag probe instead of n.
//
// If the address would miss, Touch changes nothing and returns false; the
// caller must fall back to per-access Lookup.
func (c *Cache) Touch(addr uint64, n int64) bool {
	if n <= 0 {
		return true
	}
	if c.dm4 {
		// Direct-mapped replacement has a single candidate, so the LRU stamp
		// (and the clock that feeds it) orders nothing; the fast path skips
		// the stamp store — hit/miss behavior and stats are identical.
		la := addr >> c.lineShift
		w := &c.ways[la&c.setMask]
		if !w.valid || w.tag != la>>c.setShift {
			return false
		}
		c.clock += uint64(n)
		c.stats.Accesses += n
		c.stats.Hits += n
		return true
	}
	i := c.find(c.lineAddr(addr))
	if i < 0 {
		return false
	}
	w := &c.ways[i]
	if c.subPerLine != 0 && w.subValid&c.subBit(addr) == 0 {
		return false
	}
	c.clock += uint64(n)
	c.stats.Accesses += n
	c.stats.Hits += n
	if c.isLRU {
		w.stamp = c.clock
	}
	return true
}

// TouchRun absorbs the leading all-hit prefix of a sequential run: starting
// at start, n accesses with the given byte stride, stopping at the first
// access that would miss. Each resident line's accesses are applied as one
// Touch, so the whole prefix costs one tag probe per line instead of one per
// access. Returns the number of accesses absorbed; the caller resumes (with
// its miss path) at start + absorbed*stride.
func (c *Cache) TouchRun(start uint64, n, stride int64) int64 {
	if c.dm4 && stride == 4 {
		return c.TouchRunDM4(start, n)
	}
	lineMask := uint64(c.cfg.LineSize - 1)
	var absorbed int64
	addr := start
	for n > 0 {
		k := n
		if lineEnd := (addr | lineMask) + 1; lineEnd != 0 {
			// lineEnd == 0 means the top line, which holds the rest of the
			// run (sequential runs never wrap the address space).
			if room := (int64(lineEnd-addr) + stride - 1) / stride; room < k {
				k = room
			}
		}
		i := c.find(addr >> c.lineShift)
		if i < 0 {
			break
		}
		w := &c.ways[i]
		if c.subPerLine != 0 && w.subValid&c.subBit(addr) == 0 {
			break
		}
		c.clock += uint64(k)
		c.stats.Accesses += k
		c.stats.Hits += k
		if c.isLRU {
			w.stamp = c.clock
		}
		absorbed += k
		addr += uint64(k * stride)
		n -= k
	}
	return absorbed
}

// AccessRun performs n sequential demand references start, start+stride,
// ...: bit-identical to n Access calls. TouchRun absorbs each all-hit
// stretch, and Access takes the first reference that misses, so a run costs
// one tag probe per line instead of one per reference.
func (c *Cache) AccessRun(start uint64, n, stride int64) {
	for n > 0 {
		t := c.TouchRun(start, n, stride)
		start += uint64(t * stride)
		if n -= t; n == 0 {
			return
		}
		c.Access(start)
		start += uint64(stride)
		n--
	}
}

// DM4 reports whether this cache takes TouchRun's direct-mapped, non-sector,
// LRU specialization at stride 4. Replay loops that issue many short runs
// hoist the dispatch: check DM4 once, then call TouchRunDM4 directly.
func (c *Cache) DM4() bool { return c.dm4 }

// TouchRunDM4 is TouchRun at stride 4 for caches where DM4 reports true; the
// caller must check. The specialization turns the per-line room division into
// a shift, inlines the direct-mapped tag compare, and hoists the clock and
// the access/hit counters out of the line loop. Like Touch's direct-mapped
// path it skips the per-line LRU stamp stores — replacement has a single
// candidate, so stamps order nothing — leaving hit/miss behavior and stats
// identical to the general loop.
func (c *Cache) TouchRunDM4(start uint64, n int64) int64 {
	mask := c.setMask
	ways := c.ways[:mask+1] // one way per set: len == setMask+1, so la&mask needs no bounds check
	var absorbed int64
	addr := start
	// First (possibly unaligned) line.
	la := addr >> c.lineShift
	w := &ways[la&mask]
	if w.valid && w.tag == la>>c.setShift {
		k := n
		if lineEnd := (addr | uint64(c.cfg.LineSize-1)) + 1; lineEnd != 0 {
			// lineEnd == 0 means the top line, which holds the rest of the
			// run (sequential runs never wrap the address space).
			if room := int64(lineEnd-addr+3) >> 2; room < k {
				k = room
			}
		}
		absorbed = k
		addr += uint64(k) << 2
		n -= k
		// Remaining lines start aligned, so each holds ipl instructions.
		ipl := int64(c.cfg.LineSize) >> 2
		for n > 0 {
			la = addr >> c.lineShift
			w = &ways[la&mask]
			if !w.valid || w.tag != la>>c.setShift {
				break
			}
			k = ipl
			if n < k {
				k = n
			}
			absorbed += k
			addr += uint64(k) << 2
			n -= k
		}
	}
	c.clock += uint64(absorbed)
	c.stats.Accesses += absorbed
	c.stats.Hits += absorbed
	return absorbed
}

// MissFillDM4 records a demand access known to miss and fills the line, in
// one step: Accesses and Misses grow by one, the set's resident line (if
// any) is evicted with eviction accounting, and the new line is filled. It
// is exactly Lookup(addr) returning false followed by FillEvict(addr) for a
// cache where DM4 reports true and addr's line is absent; callers (the bulk
// replay loops) guarantee both, having just probed the line via TouchRunDM4.
// Skipping the two redundant tag probes is the point.
func (c *Cache) MissFillDM4(addr uint64) {
	c.stats.Accesses++
	c.stats.Misses++
	c.clock += 2 // one Lookup tick + one FillEvict tick
	la := addr >> c.lineShift
	w := &c.ways[la&c.setMask]
	if w.valid {
		c.stats.Evictions++
	}
	w.tag = la >> c.setShift
	w.valid = true
	w.stamp = c.clock
	w.subValid = 0
	c.stats.Fills++
}

// Contains reports residency without updating any state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	i := c.find(la)
	if i < 0 {
		return false
	}
	if c.subPerLine == 0 {
		return true
	}
	return c.ways[i].subValid&c.subBit(addr) != 0
}

// Fill inserts the line containing addr (and, for sector caches, the
// sub-block containing addr plus all subsequent sub-blocks). It does not
// count as an access. Filling a resident line refreshes its replacement
// stamp.
func (c *Cache) Fill(addr uint64) {
	c.FillEvict(addr)
}

// FillEvict is Fill, additionally reporting the line address (line-granular,
// i.e. byte address of the line start) evicted to make room, if any. Victim
// caches and exclusive hierarchies need the cast-out.
func (c *Cache) FillEvict(addr uint64) (evicted uint64, wasValid bool) {
	c.clock++
	la := c.lineAddr(addr)
	if i := c.find(la); i >= 0 {
		w := &c.ways[i]
		w.stamp = c.clock
		if c.subPerLine != 0 {
			c.fillSubBlocks(w, addr)
		}
		return 0, false
	}
	_, evicted, wasValid = c.fill(la, addr)
	return evicted, wasValid
}

// fill allocates a way for lineAddr, evicting a victim if the set is full;
// it returns the way filled and, when a valid line was cast out, the
// evicted line's byte address.
func (c *Cache) fill(lineAddr, addr uint64) (w *way, evicted uint64, wasValid bool) {
	set := c.setIndex(lineAddr)
	base := int(set) * c.assoc
	victim := -1
	// Prefer an invalid way.
	for i := 0; i < c.assoc; i++ {
		if !c.ways[base+i].valid {
			victim = base + i
			break
		}
	}
	if victim < 0 {
		c.stats.Evictions++
		switch c.cfg.Replacement {
		case Random:
			victim = base + c.rng.Intn(c.assoc)
		default: // LRU and FIFO both evict the minimum stamp
			victim = base
			for i := 1; i < c.assoc; i++ {
				if c.ways[base+i].stamp < c.ways[victim].stamp {
					victim = base + i
				}
			}
		}
		old := &c.ways[victim]
		evicted = (old.tag<<c.setShift | set) << c.lineShift
		wasValid = true
	}
	w = &c.ways[victim]
	w.tag = c.tagOf(lineAddr)
	w.valid = true
	w.stamp = c.clock
	w.subValid = 0
	if c.subPerLine != 0 {
		c.fillSubBlocks(w, addr)
	}
	c.stats.Fills++
	return w, evicted, wasValid
}

// fillSubBlocks marks valid the sub-block containing addr and all subsequent
// sub-blocks in the line ("the system only refills the missing sub-block and
// all subsequent sub-blocks in the line").
func (c *Cache) fillSubBlocks(w *way, addr uint64) {
	sub := (addr >> c.subShift) & uint64(c.subPerLine-1)
	for s := sub; s < uint64(c.subPerLine); s++ {
		w.subValid |= 1 << s
	}
}

// Invalidate removes the line containing addr, returning true if it was
// resident.
func (c *Cache) Invalidate(addr uint64) bool {
	la := c.lineAddr(addr)
	if i := c.find(la); i >= 0 {
		c.ways[i] = way{}
		c.stats.Invalidations++
		return true
	}
	return false
}

// ResidentLines returns the number of currently valid lines; useful in tests
// and occupancy studies.
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid {
			n++
		}
	}
	return n
}
