package synth

import (
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// Domain text-segment base addresses. The values follow the MIPS convention
// the paper's machines used: user text low, kernel in kseg (high half), with
// the Mach user-level servers in between — each domain a disjoint virtual
// region so cross-domain conflict patterns in a cache are realistic.
var domainTextBase = [trace.NumDomains]uint64{
	trace.User:      0x0040_0000,
	trace.Kernel:    0x8000_0000,
	trace.BSDServer: 0x3000_0000,
	trace.XServer:   0x5000_0000,
}

// Per-domain data-region offsets from the text base.
// The sub-region offsets are deliberately staggered (and further staggered
// per domain in build) so that the stack, global, heap and streaming regions
// of the four domains do not all alias to cache index 0 in physically large
// direct-mapped caches — real address-space layouts collide incidentally,
// not perfectly.
const (
	globalOffset = 0x1000_3100
	streamOffset = 0x1404_4D00
	heapOffset   = 0x1809_9300
	stackOffset  = 0x1FF0_6800

	globalBytes = 64 << 10
	streamBytes = 4 << 20
	stackWindow = 8 << 10

	pageBytes = 4096
	instrSize = 4
	maxDepth  = 4
)

// proc is a laid-out procedure: [base, base+size).
type proc struct {
	base uint64
	size uint64
}

// frame is one activation record of the synthetic walk.
type frame struct {
	p         proc
	pc        uint64
	loopStart uint64
	loopEnd   uint64
	loopsLeft int
}

// domainState is one domain's walk and data-reference state: the layout
// and tables build fixes for a (profile, seed) pair, and the domainCursor
// that generation advances.
type domainState struct {
	prof     *DomainProfile
	domain   trace.Domain
	procs    []proc // indexed by popularity rank: procs[0] is hottest
	pop      *zipf  // popularity sampler over procedure ranks
	coins    coins
	heapBase uint64
	globBase uint64
	strmBase uint64
	globPop  *zipf // popularity of global words
	heapPop  *zipf // popularity of heap pages
	offPop   *zipf // popularity of word offsets within a heap page

	domainCursor
}

// domainCursor is a domain's mutable state. A Checkpoint holds a copy of
// it, so a field added here is checkpointed with no other edit; a field
// that holds a slice must be deep-copied by Snapshot and Restore, as the
// call stack is.
type domainCursor struct {
	rng   xrand.Source
	stack []frame

	// Data-reference cursors.
	storeBurst int // remaining burst stores (procedure-prolog register saves)
	stackPtr   uint64
	streamPtr  uint64

	executed int64 // instructions executed in this domain
}

// coins are a domain's per-instruction coin flips, each made once from its
// profile knob p. A flip is an integer compare where Bool(p) converts and
// divides: Float64 returns k/2^53 exactly, for k the draw's top 53 bits, so
// Float64() < p holds exactly when k < ceil(p·2^53), and xrand.Coin draws
// only where Bool(p) draws (0 < p < 1). The streams are therefore
// bit-identical to calling Bool with the knob on every instruction.
type coins struct {
	call, jump, skip, loop xrand.Coin // walk: DomainProfile knobs
	store, burst, load     xrand.Coin // data: StoreFrac/2.1, 0.22, LoadFrac
	stream, stackUp        xrand.Coin // data address: StreamFrac, 0.5
}

// newCoins makes a domain's coins from its walk knobs and the workload's
// data knobs.
func newCoins(dp *DomainProfile, d *DataProfile) coins {
	return coins{
		call:    xrand.NewCoin(dp.CallProb),
		jump:    xrand.NewCoin(dp.JumpProb),
		skip:    xrand.NewCoin(dp.SkipProb),
		loop:    xrand.NewCoin(dp.LoopProb),
		store:   xrand.NewCoin(d.StoreFrac / 2.1),
		burst:   xrand.NewCoin(0.22),
		load:    xrand.NewCoin(d.LoadFrac),
		stream:  xrand.NewCoin(d.StreamFrac),
		stackUp: xrand.NewCoin(0.5),
	}
}

// WalkStats counts control-flow events of the synthetic walk — the surface
// on which the generator can be validated against its profile knobs (e.g.
// Calls/Instructions should approximate CallProb).
type WalkStats struct {
	// Visits counts procedure activations (fresh frames pushed).
	Visits int64
	// Calls counts mid-procedure calls (a subset of Visits).
	Calls int64
	// LoopBackEdges counts taken loop back-edges.
	LoopBackEdges int64
	// Skips counts short forward branches.
	Skips int64
	// FarJumps counts far intra-procedure taken branches.
	FarJumps int64
	// DomainSwitches counts protection-domain crossings.
	DomainSwitches int64
}

// Generator produces a workload's reference stream, one reference per Next.
// The stream never ends on its own; Trace, InstrTrace and SeekSource take an
// instruction budget.
type Generator struct {
	prof    Profile
	seed    uint64
	domains []*domainState // active domains only

	cursor

	// Checkpoint recording (see checkpoint.go). ckNext is the next
	// instruction boundary to snapshot at; when ck is nil the hook in Next
	// costs a single predictable branch.
	ck     *CheckpointIndex
	ckNext int64
}

// cursor is the generator's mutable top-level state. A Checkpoint holds a
// copy of it, so a field added here is checkpointed with no other edit.
type cursor struct {
	rng     xrand.Source
	cur     int          // index into domains
	resid   int          // instructions remaining in current domain
	pending [2]trace.Ref // queued data refs following the last ifetch
	npend   int
	instrs  int64 // total instructions emitted
	walk    WalkStats
}

// NewGenerator validates prof and returns a generator seeded with seed
// (seed 0 uses the profile's default seed).
func NewGenerator(prof Profile, seed uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = prof.Seed
	}
	if seed == 0 {
		seed = 0x1b5
	}
	g := &Generator{prof: prof, seed: seed}
	g.build()
	return g, nil
}

// MustNewGenerator is NewGenerator but panics on error.
func MustNewGenerator(prof Profile, seed uint64) *Generator {
	g, err := NewGenerator(prof, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// build lays out every active domain's text image and resets walk state.
func (g *Generator) build() {
	g.cursor = cursor{rng: *xrand.New(g.seed)}
	g.domains = g.domains[:0]
	for d := 0; d < trace.NumDomains; d++ {
		dp := &g.prof.Domains[d]
		if dp.TimeShare <= 0 {
			continue
		}
		ds := &domainState{
			prof:         dp,
			domain:       trace.Domain(d),
			coins:        newCoins(dp, &g.prof.Data),
			domainCursor: domainCursor{rng: *g.rng.Fork(uint64(d) + 1)},
		}
		ds.layout()
		base := domainTextBase[d] + uint64(d)*0x5400 // per-domain stagger
		ds.globBase = base + globalOffset
		ds.strmBase = base + streamOffset
		ds.heapBase = base + heapOffset
		ds.stackPtr = base + stackOffset + stackWindow/2
		if g.prof.Data.LoadFrac > 0 || g.prof.Data.StoreFrac > 0 {
			pages := g.prof.Data.HeapPages
			if pages <= 0 {
				pages = 64
			}
			ds.globPop = newZipf(globalBytes/instrSize, 1.80)
			ds.heapPop = newZipf(pages, 1.50)
			ds.offPop = newZipf(pageBytes/instrSize, 1.80)
		}
		g.domains = append(g.domains, ds)
	}
	g.cur = g.pickDomain()
	g.resid = g.domains[g.cur].residency()
	g.syncCkNext()
}

// layout places the domain's procedures: geometric sizes around the mean,
// grouped into 16-procedure modules separated by random page gaps, with
// popularity ranks assigned by random permutation (hot procedures scatter
// across the image, as linkers scatter them in real binaries).
func (ds *domainState) layout() {
	dp := ds.prof
	n := dp.Procs
	sizes := make([]uint64, n)
	for i := range sizes {
		// Mean = MeanProcBytes: half fixed, half geometric.
		half := dp.MeanProcBytes / 2
		s := half + (ds.rng.Geometric(float64(half)/float64(instrSize)))*instrSize
		if s < 64 {
			s = 64
		}
		sizes[i] = uint64(s+instrSize-1) &^ (instrSize - 1)
	}
	layoutOrder := make([]int, n)
	if dp.HotLayout {
		// Profile-guided placement: popularity rank r sits at position r.
		for i := range layoutOrder {
			layoutOrder[i] = i
		}
		// Consume the same number of RNG draws as Perm so the rest of the
		// walk (sizes already drawn) stays comparable across layouts.
		ds.rng.Perm(make([]int, n))
	} else {
		ds.rng.Perm(layoutOrder)
	}

	addr := domainTextBase[ds.domain]
	placed := make([]proc, n) // indexed by layout position
	for pos := 0; pos < n; pos++ {
		if pos%16 == 0 && pos != 0 && !dp.HotLayout {
			// Module boundary: skip 0–2 pages, align to page. Profile-guided
			// layouts pack densely instead — removing this fragmentation is
			// half their benefit.
			addr = (addr + pageBytes - 1) &^ (pageBytes - 1)
			addr += uint64(ds.rng.Intn(3)) * pageBytes
		}
		placed[pos] = proc{base: addr, size: sizes[pos]}
		addr += sizes[pos]
	}
	// popularity rank r → placed[layoutOrder[r]]: a random permutation of
	// positions, so rank and layout position are independent.
	ds.procs = make([]proc, n)
	for r, pos := range layoutOrder {
		ds.procs[r] = placed[pos]
	}
	ds.pop = newZipf(n, dp.Theta)
}

// residency draws how many instructions to run in this domain before the
// next switch.
func (ds *domainState) residency() int {
	return ds.rng.Geometric(ds.prof.MeanResidency)
}

// pickDomain returns the index of the domain with the largest execution
// deficit relative to its configured time share — deterministic deficit
// scheduling hits Table 4's component shares exactly while the geometric
// residencies keep the interleaving granularity realistic.
func (g *Generator) pickDomain() int {
	if len(g.domains) == 1 {
		return 0
	}
	total := g.instrs + 1
	best, bestDef := 0, -1.0
	for i, ds := range g.domains {
		def := ds.prof.TimeShare - float64(ds.executed)/float64(total)
		if def > bestDef {
			best, bestDef = i, def
		}
	}
	return best
}

// pickProc draws a procedure by popularity and builds its activation frame.
func (ds *domainState) pickProc() frame {
	r := ds.pop.draw(&ds.rng)
	p := ds.procs[r]
	f := frame{p: p, pc: p.base}
	if ds.rng.Flip(ds.coins.loop) {
		span := uint64(float64(p.size) * ds.prof.MeanLoopFrac)
		span = span &^ (instrSize - 1)
		if span < 2*instrSize {
			span = 2 * instrSize
		}
		if span > p.size {
			span = p.size
		}
		maxStart := p.size - span
		var start uint64
		if maxStart >= instrSize {
			start = uint64(ds.rng.Intn(int(maxStart/instrSize))) * instrSize
		}
		f.loopStart = p.base + start
		f.loopEnd = f.loopStart + span
		f.loopsLeft = ds.rng.Geometric(ds.prof.MeanLoopIter)
	}
	return f
}

// Next returns the stream's next reference. The stream is infinite.
func (g *Generator) Next() trace.Ref {
	if g.npend > 0 {
		g.npend--
		return g.pending[g.npend]
	}
	// Every instruction boundary passes this point exactly once, so
	// recording here lands checkpoints on exact interval multiples.
	if g.ck != nil && g.instrs >= g.ckNext {
		g.recordCheckpoint()
	}
	ds := g.domains[g.cur]

	// Ensure an active frame.
	if len(ds.stack) == 0 {
		ds.stack = append(ds.stack, ds.pickProc())
		g.walk.Visits++
	}
	f := &ds.stack[len(ds.stack)-1]
	ref := trace.Ref{Addr: f.pc, Kind: trace.IFetch, Domain: ds.domain}
	g.instrs++
	ds.executed++

	g.advance(ds, f)
	g.emitData(ds)

	// Domain switch bookkeeping.
	g.resid--
	if g.resid <= 0 && len(g.domains) > 1 {
		prev := g.cur
		g.cur = g.pickDomain()
		if g.cur != prev {
			g.walk.DomainSwitches++
		}
		g.resid = g.domains[g.cur].residency()
	}
	return ref
}

// advance moves the walk past the instruction just fetched.
func (g *Generator) advance(ds *domainState, f *frame) {
	// Call?
	if len(ds.stack) < maxDepth && ds.rng.Flip(ds.coins.call) {
		ds.stack = append(ds.stack, ds.pickProc())
		g.walk.Visits++
		g.walk.Calls++
		return
	}
	// Far taken branch: uniformly into the rest of the body. Breaks
	// sequential fetch streams the way if/else arms and switch tables do.
	if ds.rng.Flip(ds.coins.jump) {
		end := f.p.base + f.p.size
		if remain := (end - f.pc) / instrSize; remain > 2 {
			f.pc += instrSize * (1 + uint64(ds.rng.Intn(int(remain-1))))
			g.walk.FarJumps++
		} else {
			f.pc += instrSize
		}
	} else if ds.rng.Flip(ds.coins.skip) {
		// Short forward branch.
		f.pc += instrSize * uint64(2+ds.rng.Intn(5))
		g.walk.Skips++
	} else {
		f.pc += instrSize
	}
	// Loop back-edge.
	if f.loopsLeft > 0 && f.pc >= f.loopEnd {
		f.loopsLeft--
		f.pc = f.loopStart
		g.walk.LoopBackEdges++
		return
	}
	// Procedure end: return.
	if f.pc >= f.p.base+f.p.size {
		ds.stack = ds.stack[:len(ds.stack)-1]
	}
}

// emitData queues load/store references to follow the last instruction.
func (g *Generator) emitData(ds *domainState) {
	d := &g.prof.Data
	if d.LoadFrac == 0 && d.StoreFrac == 0 {
		return
	}
	// Stores arrive in two modes: isolated stores, and register-save bursts
	// at procedure entry (one store per instruction for several
	// instructions) — the bursty arrivals that actually fill a write
	// buffer. Burst parameters keep the overall store fraction at
	// StoreFrac: events fire at StoreFrac/2.1 and roughly one in five events
	// is a burst of six.
	if ds.storeBurst > 0 {
		ds.storeBurst--
		ds.stackPtr -= instrSize
		g.pending[g.npend] = trace.Ref{Addr: ds.stackPtr, Kind: trace.DWrite, Domain: ds.domain}
		g.npend++
	} else if ds.rng.Flip(ds.coins.store) {
		if ds.rng.Flip(ds.coins.burst) {
			ds.storeBurst = 5
		}
		g.pending[g.npend] = trace.Ref{Addr: ds.dataAddr(), Kind: trace.DWrite, Domain: ds.domain}
		g.npend++
	}
	if ds.rng.Flip(ds.coins.load) {
		g.pending[g.npend] = trace.Ref{Addr: ds.dataAddr(), Kind: trace.DRead, Domain: ds.domain}
		g.npend++
	}
}

// dataAddr draws a data address: streaming array walk, stack, global, or
// heap, per the data profile.
func (ds *domainState) dataAddr() uint64 {
	if ds.rng.Flip(ds.coins.stream) {
		// Sequential array walk; stores and loads share the cursor.
		a := ds.strmBase + ds.streamPtr
		ds.streamPtr += instrSize
		if ds.streamPtr >= streamBytes {
			ds.streamPtr = 0
		}
		return a
	}
	switch ds.rng.Intn(10) {
	case 0, 1, 2, 3: // stack, random walk within window
		delta := uint64(ds.rng.Intn(16)) * instrSize
		if ds.rng.Flip(ds.coins.stackUp) {
			ds.stackPtr += delta
		} else {
			ds.stackPtr -= delta
		}
		base := domainTextBase[ds.domain] + stackOffset
		if ds.stackPtr < base || ds.stackPtr >= base+stackWindow {
			ds.stackPtr = base + stackWindow/2
		}
		return ds.stackPtr
	case 4, 5, 6: // globals: Zipf-popular words in a small region
		off := uint64(ds.globPop.draw(&ds.rng)) * instrSize
		return ds.globBase + off
	default: // heap: Zipf-popular page × Zipf-popular word within it
		page := uint64(ds.heapPop.draw(&ds.rng))
		off := uint64(ds.offPop.draw(&ds.rng)) * instrSize
		return ds.heapBase + page*pageBytes + off
	}
}

// Reset restarts the generator from its seed: the regenerated stream is
// bit-identical to the original.
func (g *Generator) Reset() { g.build() }

// Instructions returns the number of instruction fetches emitted so far.
func (g *Generator) Instructions() int64 { return g.instrs }

// Profile returns the generator's workload profile.
func (g *Generator) Profile() Profile { return g.prof }

// WalkStats returns the control-flow event counters accumulated so far.
func (g *Generator) WalkStats() WalkStats { return g.walk }

// DomainShare returns the fraction of instructions executed in domain d so
// far.
func (g *Generator) DomainShare(d trace.Domain) float64 {
	if g.instrs == 0 {
		return 0
	}
	for _, ds := range g.domains {
		if ds.domain == d {
			return float64(ds.executed) / float64(g.instrs)
		}
	}
	return 0
}

// Trace generates n instructions' worth of references (instructions plus
// interleaved data references) into a slice.
func Trace(prof Profile, seed uint64, n int64) ([]trace.Ref, error) {
	g, err := NewGenerator(prof, seed)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Ref, 0, n+n/3)
	for g.Instructions() < n {
		out = append(out, g.Next())
	}
	return out, nil
}

// InstrTrace generates exactly n instruction-fetch references (no data
// references), the input Section 5's experiments use.
func InstrTrace(prof Profile, seed uint64, n int64) ([]trace.Ref, error) {
	p := prof
	p.Data = DataProfile{}
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Ref, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out, nil
}
