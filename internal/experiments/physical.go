package experiments

import (
	"context"
	"math"
	"math/bits"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/vm"
)

// Physically-indexed cache simulation: the kernel behind Figure 5 and the
// page-policy ablation.
//
// A physically-indexed cell translates every instruction fetch through a
// freshly seeded vm.Mapper and accesses the cache at the physical address,
// which per reference costs a map lookup and a tag probe. Two facts let a
// cell do far less. The mapper allocates a frame only on a page's first
// touch, so translating the trace's distinct pages once, in first-touch
// order, reproduces its allocation sequence exactly, under every policy. And
// a line never straddles a page, so consecutive fetches from one virtual line
// land on one physical line under any mapping. physTrace recompiles a
// workload's run-compacted trace, once, into its pages and per-line events;
// each cell then translates the pages and replays the events with one Touch
// per line.

// physPageSize is the page size of every physically-indexed experiment:
// the DECstation's 4-KB pages.
const physPageSize = 4096

// physPage is one (domain, virtual page) pair: each protection domain is its
// own address space, so one vpn in two domains is two pages.
type physPage struct {
	domain trace.Domain
	vpn    uint64
}

// lineEvent is n consecutive fetches from one line: the line at byte offset
// off within the page with ordinal page.
type lineEvent struct {
	page uint32
	off  uint32
	n    uint32
}

// physTrace is a run-compacted trace compiled for one page size and one line
// size.
type physTrace struct {
	pageSize, lineSize int
	// pages lists every page the trace touches, in first-touch order.
	pages []physPage
	// events covers every fetch in trace order. Consecutive events share a
	// line only where one count would overflow.
	events []lineEvent
}

// compilePhys compiles the runs src holds for pageSize-byte pages and
// lineSize-byte lines, both powers of two with lineSize <= pageSize <= 4 GB.
// It reads src twice: once to size the event list, once to fill it.
func compilePhys(src trace.RunReader, pageSize, lineSize int) (*physTrace, error) {
	pt := &physTrace{pageSize: pageSize, lineSize: lineSize}
	pageShift := bits.TrailingZeros(uint(pageSize))
	lineShift := bits.TrailingZeros(uint(lineSize))
	lineMask := uint64(lineSize - 1)
	pageMask := uint64(pageSize - 1)
	// Size the event list once: each run spans at most this many lines, and
	// growing it by appends would allocate several times its final size.
	bound := 0
	err := src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		for _, r := range runs {
			bound += int((r.Start+uint64(r.Len-1)*trace.InstrBytes)>>lineShift-r.Start>>lineShift) + 1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pt.events = make([]lineEvent, 0, bound)
	ordinal := make(map[physPage]uint32)
	var cur physPage
	var curID uint32
	err = src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		for _, r := range runs {
			addr, left := r.Start, r.Len
			for left > 0 {
				k := left
				if lineEnd := (addr | lineMask) + 1; lineEnd != 0 {
					// lineEnd == 0 means the top line, which holds the rest of
					// the run (runs never wrap the address space).
					if room := int64(lineEnd-addr+trace.InstrBytes-1) / trace.InstrBytes; room < k {
						k = room
					}
				}
				pg := physPage{domain: r.Domain, vpn: addr >> pageShift}
				if len(pt.pages) == 0 || pg != cur {
					id, ok := ordinal[pg]
					if !ok {
						id = uint32(len(pt.pages))
						ordinal[pg] = id
						pt.pages = append(pt.pages, pg)
					}
					cur, curID = pg, id
				}
				off := uint32(addr & pageMask &^ lineMask)
				if last := len(pt.events) - 1; last >= 0 && pt.events[last].page == curID &&
					pt.events[last].off == off && int64(pt.events[last].n)+k <= math.MaxUint32 {
					pt.events[last].n += uint32(k)
				} else {
					pt.events = append(pt.events, lineEvent{page: curID, off: off, n: uint32(k)})
				}
				addr += uint64(k) * trace.InstrBytes
				left -= k
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pt, nil
}

// replay translates pt's pages through m in first-touch order, then applies
// every line event to c. m must be fresh or freshly reset and map pt's page
// size; c must use pt's line size without sub-blocks. c's Stats then equal,
// bit for bit, those of Access on every translated fetch in trace order:
// each event is one AccessN, an Access followed by hits on the rest.
func (pt *physTrace) replay(m *vm.Mapper, c *cache.Cache) {
	if m.Config().PageSize != pt.pageSize || c.Config().LineSize != pt.lineSize || c.Config().SubBlock != 0 {
		panic("experiments: physical trace replayed on a mismatched mapper or cache")
	}
	frames := make([]uint64, len(pt.pages))
	for i, pg := range pt.pages {
		frames[i] = m.Translate(pg.vpn*uint64(pt.pageSize), pg.domain)
	}
	for _, ev := range pt.events {
		c.AccessN(frames[ev.page]|uint64(ev.off), int64(ev.n))
	}
}

// physSim simulates one physically-indexed cell: every instruction fetch of
// a workload's trace translated through m and accessed in c.
type physSim func(m *vm.Mapper, c *cache.Cache)

// perRefPhys is the reference physSim: one Translate and one Access per
// fetch.
func perRefPhys(refs []trace.Ref) physSim {
	return func(m *vm.Mapper, c *cache.Cache) {
		for _, r := range refs {
			c.Access(m.Translate(r.Addr, r.Domain))
		}
	}
}

// mapPhysical runs cell over every (profile, cell index) pair concurrently
// and returns the results profile-major: profile i's cell j at
// i*cells+j. It first compiles each profile's trace once (mapRuns) into a
// physSim for physPageSize pages and lineSize-byte lines, then maps all
// len(profiles)×cells cells over the workers, so a worker never idles while
// another finishes a profile; a physSim serves any number of cells at once.
// cell gets the runner's context, which it should check between trials. The
// default path compiles the memoized runs into a physTrace; opt.PerConfig
// selects the per-reference loop over the expanded traces, all of which it
// holds until the last cell ends. Both paths yield bit-identical cache
// statistics (pinned by internal/check's figure5-physical differential).
func mapPhysical[T any](profiles []synth.Profile, opt Options, lineSize, cells int, cell func(ctx context.Context, p synth.Profile, sim physSim, i int) (T, error)) ([]T, error) {
	sims, err := mapRuns(profiles, opt, func(_ context.Context, _ synth.Profile, src trace.RunReader) (physSim, error) {
		if opt.PerConfig {
			refs, err := trace.ExpandReader(src)
			if err != nil {
				return nil, err
			}
			return perRefPhys(refs), nil
		}
		pt, err := compilePhys(src, physPageSize, lineSize)
		if err != nil {
			return nil, err
		}
		return pt.replay, nil
	})
	if err != nil {
		return nil, err
	}
	return mapOrdered(opt.ctx(), len(profiles)*cells, opt.workers(),
		func(i int) string { return profiles[i/cells].Name },
		func(ctx context.Context, i int) (T, error) {
			return cell(ctx, profiles[i/cells], sims[i/cells], i%cells)
		})
}
