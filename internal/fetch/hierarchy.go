package fetch

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
)

// Hierarchy is a combined two-level fetch simulator: an L1 miss costs the
// L1↔L2 fill and probes the L2; an L2 miss additionally costs the L2↔memory
// fill. The paper instead simulated the two levels independently ("We
// determined the L1 contribution by simulating an L1 cache backed by a
// perfect L2... L2 contribution is determined by simulating an L2 cache
// backed by main memory") — this engine exists to validate that
// approximation (see experiments.MethodologyValidation): under inclusion and
// LRU the L2's contents are nearly identical whether it observes the full
// stream or only the L1 miss stream, so the two methods agree closely.
type Hierarchy struct {
	l1      *cache.Cache
	l2      *cache.Cache
	l1Link  memsys.Transfer
	memLink memsys.Transfer

	lineSize uint64
	res      Result
	l2Misses int64
	l1Stall  int64
	l2Stall  int64
}

// NewHierarchy builds a combined L1+L2 simulator. The L2's lines must be at
// least as long as the L1's: an L1 refill probes and charges exactly one L2
// line, the one holding the missing word.
func NewHierarchy(l1cfg, l2cfg cache.Config, l1Link, memLink memsys.Transfer) (*Hierarchy, error) {
	if err := l1Link.Validate(); err != nil {
		return nil, err
	}
	if err := memLink.Validate(); err != nil {
		return nil, err
	}
	l1, err := cache.New(l1cfg)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(l2cfg)
	if err != nil {
		return nil, err
	}
	if l2cfg.LineSize < l1cfg.LineSize {
		return nil, fmt.Errorf("fetch: hierarchy L2 line size (%d) is shorter than the L1's (%d)",
			l2cfg.LineSize, l1cfg.LineSize)
	}
	return &Hierarchy{
		l1: l1, l2: l2, l1Link: l1Link, memLink: memLink,
		lineSize: uint64(l1cfg.LineSize),
	}, nil
}

// Fetch implements Engine.
func (h *Hierarchy) Fetch(addr uint64) {
	h.res.Instructions++
	if h.l1.Lookup(addr) {
		return
	}
	h.res.Misses++
	l1Fill := int64(h.l1Link.FillCycles(int(h.lineSize)))
	h.res.StallCycles += l1Fill
	h.l1Stall += l1Fill
	h.l1.Fill(addr)
	if h.l2.Access(addr) {
		return
	}
	h.l2Misses++
	l2Fill := int64(h.memLink.FillCycles(h.l2.Config().LineSize))
	h.res.StallCycles += l2Fill
	h.l2Stall += l2Fill
}

// Result implements Engine.
func (h *Hierarchy) Result() Result { return h.res }

// Split returns the L1 and L2 stall contributions per instruction.
func (h *Hierarchy) Split() (l1CPI, l2CPI float64) {
	if h.res.Instructions == 0 {
		return 0, 0
	}
	n := float64(h.res.Instructions)
	return float64(h.l1Stall) / n, float64(h.l2Stall) / n
}

// L2Misses returns the number of L2 misses observed.
func (h *Hierarchy) L2Misses() int64 { return h.l2Misses }

// L1 and L2 expose the underlying caches.
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// L2 exposes the second-level cache.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }
