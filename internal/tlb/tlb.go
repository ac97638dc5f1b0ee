// Package tlb models translation lookaside buffers.
//
// The DECstation 3100's R2000 TLB — 64 fully-associative entries mapping
// 4-KB pages — is the reference configuration for the CPItlb component of the
// paper's Tables 1 and 3. The model also supports set-associative
// organizations and alternative replacement policies so TLB reach can be
// studied as an ablation (the authors' companion work, Nagle93, did exactly
// that on the same infrastructure).
package tlb

import (
	"fmt"

	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// Config describes a TLB organization.
type Config struct {
	// Entries is the total number of mappings held.
	Entries int
	// PageSize is the page size in bytes; a power of two.
	PageSize int
	// Assoc is the set associativity; 0 means fully associative.
	Assoc int
	// Replacement selects the victim policy. The R2000 used random
	// replacement in hardware; LRU is the common idealization. Default LRU.
	Replacement Replacement
	// Seed seeds Random replacement.
	Seed uint64
}

// Replacement selects a TLB victim-choice policy.
type Replacement uint8

const (
	// LRU evicts the least-recently-used entry.
	LRU Replacement = iota
	// FIFO evicts the oldest entry.
	FIFO
	// Random evicts a random entry (the R2000's hardware policy for the
	// non-wired entries).
	Random
)

// R2000 returns the DECstation 3100's TLB configuration: 64 fully-associative
// entries, 4-KB pages.
func R2000() Config {
	return Config{Entries: 64, PageSize: 4096, Assoc: 0, Replacement: LRU}
}

// Stats counts TLB activity.
type Stats struct {
	Accesses int64
	Hits     int64
	Misses   int64
}

// MissRatio returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type entry struct {
	tag    uint64
	domain trace.Domain
	valid  bool
	stamp  uint64
}

// TLB is a translation lookaside buffer model. Entries are tagged with the
// protection domain (an ASID stand-in), so domain switches do not require
// flushes but mappings are not shared across domains.
//
// Lookups go through a small table of slot hints indexed by a hash of
// (vpn, domain). A mapping lives in at most one slot, so a hinted slot that
// is valid and holds the vpn and domain is the hit a scan would find; any
// other hint (never written, overwritten by a colliding key, or left behind
// by an eviction, FlushDomain or Reset) fails that check and the lookup
// falls back to scanning the set. Hints therefore change only the cost of a
// lookup, never its outcome.
type TLB struct {
	cfg       Config
	pageShift uint
	sets      int
	entries   []entry
	hints     []int32 // slot index last seen holding the key; a guess
	hintShift uint    // 64 - log2(len(hints))
	clock     uint64
	rng       *xrand.Source
	stats     Stats
}

// hintsPerEntry sizes the hint table relative to the TLB, keeping hash
// collisions between resident mappings rare.
const hintsPerEntry = 4

// New validates cfg and returns an empty TLB.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("tlb: entries %d must be positive", cfg.Entries)
	}
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("tlb: page size %d must be a positive power of two", cfg.PageSize)
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = cfg.Entries
	}
	if cfg.Assoc < 0 || cfg.Assoc > cfg.Entries || cfg.Entries%cfg.Assoc != 0 {
		return nil, fmt.Errorf("tlb: associativity %d invalid for %d entries", cfg.Assoc, cfg.Entries)
	}
	sets := cfg.Entries / cfg.Assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tlb: set count %d must be a power of two", sets)
	}
	t := &TLB{
		cfg:     cfg,
		sets:    sets,
		entries: make([]entry, cfg.Entries),
	}
	for p := cfg.PageSize; p > 1; p >>= 1 {
		t.pageShift++
	}
	nh := 1
	t.hintShift = 64
	for nh < hintsPerEntry*cfg.Entries {
		nh <<= 1
		t.hintShift--
	}
	t.hints = make([]int32, nh)
	if cfg.Replacement == Random {
		t.rng = xrand.New(cfg.Seed ^ 0x7e5b)
	}
	return t, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the (normalized) configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Reset empties the TLB and clears counters.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.stats = Stats{}
	t.clock = 0
}

// Access translates addr in domain d: a hit updates recency; a miss installs
// the mapping (evicting per policy). Returns true on hit.
func (t *TLB) Access(addr uint64, d trace.Domain) bool {
	t.stats.Accesses++
	t.clock++
	vpn := addr >> t.pageShift
	h := int(((vpn<<2 ^ uint64(d)) * 0x9e3779b97f4a7c15) >> t.hintShift)
	if e := &t.entries[t.hints[h]]; e.valid && e.tag == vpn && e.domain == d {
		t.stats.Hits++
		if t.cfg.Replacement == LRU {
			e.stamp = t.clock
		}
		return true
	}
	// One pass over the set finds the mapping, or else the first free slot
	// and the least-recently-stamped one (lowest index on ties).
	assoc := t.cfg.Assoc
	base := (int(vpn) & (t.sets - 1)) * assoc
	set := t.entries[base : base+assoc]
	free, oldest := -1, 0
	for i := range set {
		e := &set[i]
		if !e.valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if e.tag == vpn && e.domain == d {
			t.stats.Hits++
			if t.cfg.Replacement == LRU {
				e.stamp = t.clock
			}
			t.hints[h] = int32(base + i)
			return true
		}
		if e.stamp < set[oldest].stamp {
			oldest = i
		}
	}
	t.stats.Misses++
	victim := free
	if victim < 0 {
		if t.cfg.Replacement == Random {
			victim = t.rng.Intn(assoc)
		} else {
			victim = oldest
		}
	}
	set[victim] = entry{tag: vpn, domain: d, valid: true, stamp: t.clock}
	t.hints[h] = int32(base + victim)
	return false
}

// FlushDomain invalidates every entry belonging to domain d (what an OS
// without ASIDs must do on every context switch). Returns the number of
// entries invalidated.
func (t *TLB) FlushDomain(d trace.Domain) int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].domain == d {
			t.entries[i] = entry{}
			n++
		}
	}
	return n
}

// Reach returns the bytes of address space the TLB can map at once.
func (t *TLB) Reach() int64 {
	return int64(t.cfg.Entries) * int64(t.cfg.PageSize)
}
