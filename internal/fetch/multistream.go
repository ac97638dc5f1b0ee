package fetch

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
)

// MultiStream is the multi-way stream buffer (Jouppi 1990; evaluated as a
// secondary-cache replacement by Palacharla & Kessler 1994, both cited by
// the paper). Where the single stream buffer of Table 8 cancels its stream
// on every non-sequential miss, a multi-way buffer keeps several concurrent
// streams alive, allocating a new one (LRU) on each miss — so alternating
// between a handful of fetch streams (exactly what IBS's cross-domain
// interleaving produces) no longer destroys prefetch state. This is the
// "more sophisticated hardware mechanism on demanding workloads" the paper's
// conclusion invites.
type MultiStream struct {
	l1       *cache.Cache
	link     memsys.Transfer
	ways     int
	depth    int
	lineSize uint64

	streams []streamWay
	res     Result
}

// streamWay is one stream: a window of prefetched lines and its LRU stamp.
type streamWay struct {
	avail map[uint64]int64 // line → arrival cycle
	next  uint64           // next line to prefetch when a hit consumes one
	stamp int64
	live  bool
}

// NewMultiStream builds a ways×depth multi-way stream buffer in front of a
// pipelined memory system (line size ≤ bandwidth, as in Table 8).
func NewMultiStream(cfg cache.Config, link memsys.Transfer, ways, depth int) (*MultiStream, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if ways < 1 {
		return nil, fmt.Errorf("fetch: multi-stream needs >= 1 way, got %d", ways)
	}
	if depth < 1 {
		return nil, fmt.Errorf("fetch: multi-stream needs depth >= 1, got %d", depth)
	}
	if cfg.LineSize > 2*link.BytesPerCycle {
		return nil, fmt.Errorf("fetch: multi-stream needs line size (%d) <= 2x bandwidth (%d B/cyc)",
			cfg.LineSize, link.BytesPerCycle)
	}
	l1, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	ms := &MultiStream{
		l1: l1, link: link, ways: ways, depth: depth,
		lineSize: uint64(cfg.LineSize),
		streams:  make([]streamWay, ways),
	}
	for i := range ms.streams {
		ms.streams[i].avail = make(map[uint64]int64)
	}
	return ms, nil
}

func (m *MultiStream) now() int64 { return m.res.Instructions + m.res.StallCycles }

// Fetch implements Engine.
func (m *MultiStream) Fetch(addr uint64) {
	m.res.Instructions++
	if m.l1.Lookup(addr) {
		return
	}
	now := m.now()
	la := addr &^ (m.lineSize - 1)

	// Probe every stream for the line.
	for i := range m.streams {
		s := &m.streams[i]
		if !s.live {
			continue
		}
		arrive, ok := s.avail[la]
		if !ok {
			continue
		}
		if arrive > now {
			m.res.StallCycles += arrive - now
			now = arrive
		}
		m.res.BufferHits++
		m.l1.Fill(la)
		delete(s.avail, la)
		// Keep this stream rolling: prefetch its next sequential line.
		s.avail[s.next] = now + int64(m.link.Latency)
		s.next += m.lineSize
		s.stamp = now
		return
	}

	// Miss everywhere: fetch the line and (re)allocate the LRU stream to
	// follow it.
	m.res.Misses++
	m.res.StallCycles += int64(m.link.FillCycles(int(m.lineSize)))
	now = m.now()
	m.l1.Fill(la)

	victim := 0
	for i := 1; i < m.ways; i++ {
		if !m.streams[i].live {
			victim = i
			break
		}
		if m.streams[i].stamp < m.streams[victim].stamp {
			victim = i
		}
	}
	s := &m.streams[victim]
	clear(s.avail)
	s.live = true
	s.stamp = now
	for i := 1; i <= m.depth; i++ {
		s.avail[la+uint64(i)*m.lineSize] = now + int64(i)
	}
	s.next = la + uint64(m.depth+1)*m.lineSize
}

// Result implements Engine.
func (m *MultiStream) Result() Result { return m.res }
