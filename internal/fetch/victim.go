package fetch

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
)

// Victim is a blocking L1 frontend backed by a small fully-associative
// victim cache (Jouppi 1990, cited by the paper alongside stream buffers as
// the other way to "improve direct-mapped cache performance by the addition
// of a small fully-associative cache"). Lines evicted from the L1 land in
// the victim cache; an L1 miss that hits there swaps the line back for a
// one-cycle penalty instead of a full refill. The paper's Section 5 chose
// associative L2s and stream buffers instead; this engine exists so the
// road not taken can be measured (see experiments.AblationVictim).
type Victim struct {
	l1          *cache.Cache
	vc          *cache.Cache // fully associative, LRU
	link        memsys.Transfer
	lineSize    uint64
	swapPenalty int64
	res         Result
	// VictimHits counts misses satisfied by the victim cache.
	victimHits int64
}

// NewVictim builds the engine with a victim cache of the given number of
// lines (Jouppi studied 1–15; 4 is the classic sweet spot).
func NewVictim(cfg cache.Config, link memsys.Transfer, victimLines int) (*Victim, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if victimLines < 1 {
		return nil, fmt.Errorf("fetch: victim cache needs >= 1 line, got %d", victimLines)
	}
	l1, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	vc, err := cache.New(cache.Config{
		Size:     victimLines * cfg.LineSize,
		LineSize: cfg.LineSize,
		Assoc:    0, // fully associative
	})
	if err != nil {
		return nil, err
	}
	return &Victim{
		l1: l1, vc: vc, link: link,
		lineSize:    uint64(cfg.LineSize),
		swapPenalty: 1,
	}, nil
}

// Fetch implements Engine.
func (v *Victim) Fetch(addr uint64) {
	v.res.Instructions++
	if v.l1.Lookup(addr) {
		return
	}
	v.res.Misses++
	la := addr &^ (v.lineSize - 1)
	if v.vc.Contains(la) {
		// Swap: the victim line returns to the L1; the line the L1 casts
		// out takes its place in the victim cache.
		v.victimHits++
		v.res.StallCycles += v.swapPenalty
		v.vc.Invalidate(la)
		if evicted, ok := v.l1.FillEvict(la); ok {
			v.vc.Fill(evicted)
		}
		return
	}
	// Full miss: refill from the next level; the L1 cast-out goes to the
	// victim cache.
	v.res.StallCycles += int64(v.link.FillCycles(int(v.lineSize)))
	if evicted, ok := v.l1.FillEvict(la); ok {
		v.vc.Fill(evicted)
	}
}

// Result implements Engine.
func (v *Victim) Result() Result { return v.res }

// VictimHits returns the number of misses satisfied by the victim cache.
func (v *Victim) VictimHits() int64 { return v.victimHits }
