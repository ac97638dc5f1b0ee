// Package vm models virtual-memory page mapping for physically-indexed
// caches.
//
// The paper's Figure 5 shows that physically-indexed I-caches exhibit
// run-to-run performance variability because "the allocation of virtual
// pages to physical cache page frames is different from run to run of a
// given workload": the OS hands out physical frames in an effectively random
// order, so the pattern of cache conflicts changes with every run. This
// package reproduces that mechanism with pluggable allocation policies —
// random (the Ultrix/Mach behavior that causes the variability), sequential,
// and the two conflict-avoiding policies from the literature the paper cites
// (page coloring and bin hopping, per Kessler & Hill and Bray et al.).
package vm

import (
	"fmt"

	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// Policy selects how physical frames are assigned to virtual pages.
type Policy uint8

const (
	// RandomAlloc assigns a random free frame — the unmanaged OS behavior
	// that produces Figure 5's variability.
	RandomAlloc Policy = iota
	// Sequential assigns frames in ascending order of first touch.
	Sequential
	// PageColoring assigns a frame whose cache color equals the virtual
	// page's color, making a physically-indexed cache behave like a
	// virtually-indexed one.
	PageColoring
	// BinHopping cycles through cache colors round-robin on successive
	// allocations, spreading pages evenly across the cache.
	BinHopping
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RandomAlloc:
		return "random"
	case Sequential:
		return "sequential"
	case PageColoring:
		return "page-coloring"
	case BinHopping:
		return "bin-hopping"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config describes a page-mapping environment.
type Config struct {
	// PageSize is the page size in bytes; a power of two. Default 4096.
	PageSize int
	// Frames is the number of physical frames available. Zero means
	// unbounded (frames are never reused). When bounded, allocation wraps:
	// frames are reused without invalidation, which is acceptable for
	// cache-index studies (two pages sharing a frame alias harmlessly).
	Frames int
	// Colors is the number of cache colors (cache bytes per way ÷ page
	// size), needed by PageColoring and BinHopping. Zero disables coloring
	// constraints (the two policies then degrade to Sequential).
	Colors int
	// Policy selects the allocation policy.
	Policy Policy
	// Seed seeds RandomAlloc.
	Seed uint64
}

// Mapper lazily assigns physical frames to (domain, virtual page) pairs on
// first touch and translates addresses. Each protection domain is a distinct
// address space: the same virtual page in two domains gets two frames.
type Mapper struct {
	cfg       Config
	pageShift uint
	pageMask  uint64
	rng       *xrand.Source
	table     map[mapKey]uint64
	nextFrame uint64
	nextColor uint64
	allocated int
}

type mapKey struct {
	domain trace.Domain
	vpn    uint64
}

// NewMapper validates cfg and returns an empty Mapper.
func NewMapper(cfg Config) (*Mapper, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("vm: page size %d must be a positive power of two", cfg.PageSize)
	}
	if cfg.Frames < 0 {
		return nil, fmt.Errorf("vm: frames %d must be non-negative", cfg.Frames)
	}
	if cfg.Colors < 0 || (cfg.Colors != 0 && cfg.Colors&(cfg.Colors-1) != 0) {
		return nil, fmt.Errorf("vm: colors %d must be zero or a power of two", cfg.Colors)
	}
	if (cfg.Policy == PageColoring || cfg.Policy == BinHopping) && cfg.Colors == 0 {
		return nil, fmt.Errorf("vm: policy %v requires Colors > 0", cfg.Policy)
	}
	if cfg.Frames != 0 && cfg.Colors != 0 && cfg.Frames < cfg.Colors {
		return nil, fmt.Errorf("vm: frames %d < colors %d", cfg.Frames, cfg.Colors)
	}
	m := &Mapper{
		cfg:      cfg,
		pageMask: uint64(cfg.PageSize - 1),
		table:    make(map[mapKey]uint64),
		rng:      xrand.New(cfg.Seed ^ 0x9a6e),
	}
	for p := cfg.PageSize; p > 1; p >>= 1 {
		m.pageShift++
	}
	return m, nil
}

// MustNewMapper is NewMapper but panics on error.
func MustNewMapper(cfg Config) *Mapper {
	m, err := NewMapper(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the mapper's configuration.
func (m *Mapper) Config() Config { return m.cfg }

// Translate returns the physical address for addr in domain d, allocating a
// frame on first touch of the page.
func (m *Mapper) Translate(addr uint64, d trace.Domain) uint64 {
	vpn := addr >> m.pageShift
	key := mapKey{domain: d, vpn: vpn}
	pfn, ok := m.table[key]
	if !ok {
		pfn = m.allocate(vpn)
		m.table[key] = pfn
	}
	return pfn<<m.pageShift | (addr & m.pageMask)
}

// allocate picks a frame for a new page per the configured policy.
func (m *Mapper) allocate(vpn uint64) uint64 {
	m.allocated++
	colors := uint64(m.cfg.Colors)
	var pfn uint64
	switch m.cfg.Policy {
	case RandomAlloc:
		if m.cfg.Frames > 0 {
			pfn = m.rng.Uint64n(uint64(m.cfg.Frames))
		} else {
			// Unbounded: random frame in a large nominal memory (1M frames
			// = 4 GB at 4-KB pages), plenty to make index bits uniform.
			pfn = m.rng.Uint64n(1 << 20)
		}
	case Sequential:
		pfn = m.nextFrame
		m.nextFrame++
	case PageColoring:
		// Frame color must match virtual color. Successive pages of the
		// same color stack into successive color groups.
		color := vpn & (colors - 1)
		group := m.nextFrame / colors // crude group counter; advance per alloc
		pfn = group*colors + color
		m.nextFrame++
	case BinHopping:
		color := m.nextColor & (colors - 1)
		m.nextColor++
		group := m.nextFrame / colors
		pfn = group*colors + color
		m.nextFrame++
	}
	if m.cfg.Frames > 0 {
		pfn %= uint64(m.cfg.Frames)
	}
	return pfn
}

// Allocated returns the number of pages mapped so far.
func (m *Mapper) Allocated() int { return m.allocated }

// Reset discards all mappings, re-seeding the random stream so the next run
// reproduces the same allocation sequence. Use ResetTrial to draw a fresh
// random mapping (a new "run" in Figure 5's sense).
func (m *Mapper) Reset() {
	m.table = make(map[mapKey]uint64)
	m.nextFrame = 0
	m.nextColor = 0
	m.allocated = 0
	m.rng = xrand.New(m.cfg.Seed ^ 0x9a6e)
}

// ResetTrial discards all mappings and advances to trial's random stream, so
// successive trials see different (but individually reproducible) frame
// assignments.
func (m *Mapper) ResetTrial(trial uint64) {
	m.table = make(map[mapKey]uint64)
	m.nextFrame = 0
	m.nextColor = 0
	m.allocated = 0
	m.rng = xrand.New(m.cfg.Seed ^ 0x9a6e ^ (trial+1)*0x9e3779b97f4a7c15)
}
