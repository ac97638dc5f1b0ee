package fetch

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
)

// Predict is a non-sequential prefetch engine — the "more aggressive
// (non-sequential) prefetching schemes" the paper's conclusion names as the
// future work its traces should enable. It replaces the stream buffer's
// next-SEQUENTIAL-line assumption with a next-line predictor: a
// direct-mapped table remembers, for each line, the line that followed it
// last time, and on a miss the predicted successor chain is prefetched into
// the buffer. Sequential runs predict themselves after one observation, so
// this engine strictly generalizes the sequential stream buffer once the
// table is warm — and unlike it, survives taken branches and domain
// switches whose targets repeat.
type Predict struct {
	l1       *cache.Cache
	link     memsys.Transfer
	depth    int
	lineSize uint64

	// pred is the next-line predictor: a direct-mapped table of
	// (tag, successor, confidence) entries indexed by line address. An
	// entry is only *used* once the same successor has been observed twice
	// in a row (confidence hysteresis) — without it, one-off branch
	// targets poison the sequential fallback and the predictor loses to a
	// plain stream buffer.
	predTag  []uint64
	predNext []uint64
	predConf []uint8
	predMask uint64

	// buf is the prefetch buffer: at most depth lines with their arrival
	// cycles, in no order. A miss empties it and adds at most depth lines,
	// and a buffer hit removes one line and adds at most one, so a linear
	// search over a slice serves it.
	buf      []prefetched
	tail     uint64 // last line in the prefetch chain (for top-up)
	prevLine uint64 // last line fetched, for predictor training
	started  bool
	res      Result
	// TableHits counts buffer hits (i.e. correct predictions consumed).
	tableMiss int64
}

// NewPredict builds the engine: a stream buffer of depth lines fed by a
// next-line predictor with tableEntries entries (a power of two).
func NewPredict(cfg cache.Config, link memsys.Transfer, depth, tableEntries int) (*Predict, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("fetch: predict engine needs depth >= 1, got %d", depth)
	}
	if tableEntries < 1 || tableEntries&(tableEntries-1) != 0 {
		return nil, fmt.Errorf("fetch: predictor table entries %d must be a positive power of two", tableEntries)
	}
	if cfg.LineSize > 2*link.BytesPerCycle {
		return nil, fmt.Errorf("fetch: predict engine needs line size (%d) <= 2x bandwidth (%d B/cyc)",
			cfg.LineSize, link.BytesPerCycle)
	}
	l1, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Predict{
		l1: l1, link: link, depth: depth,
		lineSize: uint64(cfg.LineSize),
		predTag:  make([]uint64, tableEntries),
		predNext: make([]uint64, tableEntries),
		predConf: make([]uint8, tableEntries),
		predMask: uint64(tableEntries - 1),
	}, nil
}

// prefetched is a buffered line and the cycle it arrives.
type prefetched struct {
	line   uint64
	arrive int64
}

// buffered returns line's index in the prefetch buffer, or -1.
func (p *Predict) buffered(line uint64) int {
	for i, b := range p.buf {
		if b.line == line {
			return i
		}
	}
	return -1
}

func (p *Predict) now() int64 { return p.res.Instructions + p.res.StallCycles }

// predict returns the predicted successor of line, falling back to the
// sequential next line when the table has no confident entry.
func (p *Predict) predict(line uint64) uint64 {
	slot := (line / p.lineSize) & p.predMask
	if p.predTag[slot] == line && p.predConf[slot] > 0 {
		return p.predNext[slot]
	}
	p.tableMiss++
	return line + p.lineSize
}

// train records that next followed line, with two-observation hysteresis:
// a successor must repeat before it is trusted, and a trusted successor is
// only displaced after it misses once.
func (p *Predict) train(line, next uint64) {
	if next == line+p.lineSize {
		// Sequential transitions are the fallback anyway; recording them
		// would evict useful branch-target entries from the table.
		return
	}
	slot := (line / p.lineSize) & p.predMask
	switch {
	case p.predTag[slot] != line:
		p.predTag[slot] = line
		p.predNext[slot] = next
		p.predConf[slot] = 0
	case p.predNext[slot] == next:
		p.predConf[slot] = 1
	case p.predConf[slot] > 0:
		p.predConf[slot] = 0 // trusted entry missed once: demote
	default:
		p.predNext[slot] = next // untrusted entry: replace
	}
}

// Fetch implements Engine.
func (p *Predict) Fetch(addr uint64) {
	p.res.Instructions++
	la := addr &^ (p.lineSize - 1)
	// Train the predictor on every line transition.
	if p.started && la != p.prevLine {
		p.train(p.prevLine, la)
	}
	p.started = true
	p.prevLine = la

	if p.l1.Lookup(addr) {
		return
	}
	now := p.now()
	if i := p.buffered(la); i >= 0 {
		if arrive := p.buf[i].arrive; arrive > now {
			p.res.StallCycles += arrive - now
			now = arrive
		}
		p.res.BufferHits++
		p.l1.Fill(la)
		last := len(p.buf) - 1
		p.buf[i] = p.buf[last]
		p.buf = p.buf[:last]
		// Top up: extend the chain by one predicted line, keeping the
		// buffer rolling as long as predictions hold (the analogue of
		// MultiStream's per-consumption prefetch).
		next := p.predict(p.tail)
		if p.buffered(next) < 0 && !p.l1.Contains(next) {
			p.buf = append(p.buf, prefetched{line: next, arrive: now + int64(p.link.Latency)})
			p.tail = next
		}
		return
	}
	// Miss: fetch the line, then prefetch the predicted successor chain —
	// pipelined, one request per cycle, like Table 8's stream buffer.
	p.res.Misses++
	p.res.StallCycles += int64(p.link.FillCycles(int(p.lineSize)))
	now = p.now()
	p.l1.Fill(la)
	p.buf = p.buf[:0]
	next := la
	p.tail = la
	for i := 1; i <= p.depth; i++ {
		next = p.predict(next)
		if p.buffered(next) >= 0 || p.l1.Contains(next) {
			break // chain loops back or is already resident
		}
		p.buf = append(p.buf, prefetched{line: next, arrive: now + int64(i)})
		p.tail = next
	}
}

// Result implements Engine.
func (p *Predict) Result() Result { return p.res }
