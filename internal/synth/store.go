package synth

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"ibsim/internal/crashfs"
	"ibsim/internal/trace"
)

// ErrOverBudget reports a request to materialize a trace larger than the
// store's hard memory budget. Callers that can consume a run reader should
// use Acquire, which steps down to a tier the budget admits instead.
var ErrOverBudget = errors.New("synth: trace exceeds store hard memory budget")

// DefaultIdleBudget bounds the bytes the default Store keeps alive for
// traces no caller currently holds: roughly two full experiment suites at
// the default 2M-instruction scale.
const DefaultIdleBudget = 1 << 30

// DefaultStore is the process-wide trace store shared by the experiment
// suite, the verification harness, and the CLIs, so each (workload, seed, n)
// trace is generated once per process instead of once per experiment.
var DefaultStore = NewStore(DefaultIdleBudget)

// entryKind names the form a store entry holds. Each form has its own key
// space, so a budget admitting one form never aliases an entry holding
// another.
type entryKind uint8

const (
	kindRefs        entryKind = iota // per-reference slice (Instr), plus runs once InstrRuns asks
	kindRuns                         // run-length compaction only (RunsOnly)
	kindColumnar                     // on-disk columnar file (Columnar, see columnar.go)
	kindCheckpoints                  // checkpoint index for (prof, seed); n is always 0 (see seek.go)
)

// storeKey identifies one memoized trace form. The full Profile value
// (comparable: scalars and fixed-size arrays only) participates so
// same-named variants — e.g. the Mach and Ultrix builds of an IBS workload,
// or a caller-tweaked profile — never alias each other's traces.
type storeKey struct {
	prof Profile
	seed uint64
	n    int64
	kind entryKind
}

// payload is what filling an entry produces: the refs of a kindRefs entry,
// the runs of a kindRuns entry, or a columnar entry's opened file cf, its
// location path and its on-disk size fileBytes (what the budgets charge;
// the live-memory cost is one mmap'd block).
type payload struct {
	refs      []trace.Ref
	runs      []trace.Run
	cf        *trace.ColumnarFile
	path      string
	fileBytes int64
}

// storeEntry is one memoized trace with its reference count.
type storeEntry struct {
	ready chan struct{} // closed once payload/err are published
	payload
	err error

	// runsOnce guards the lazy compaction InstrRuns adds to a kindRefs
	// entry. runs is assigned under the store mutex so the idle-byte
	// accounting, which reads len(runs) under the same mutex, never races
	// the compaction.
	runsOnce sync.Once

	// ckix is the checkpoint index of a kindCheckpoints entry (see
	// seek.go). Its bytes only change while some holder's generator appends
	// to it, i.e. while refcount > 0, so the idle accounting at the
	// 0-transition stays exact.
	ckix *CheckpointIndex

	refcount int
	lastUse  int64 // store tick of the most recent acquire/release
}

// entryBytes is the retained size of an entry: the trace itself plus its
// run-length compaction when one has been materialized, or the on-disk file
// size for columnar entries. Callers must hold the store mutex (runs is
// written under it).
func entryBytes(e *storeEntry) int64 {
	b := int64(len(e.refs))*refBytes + int64(len(e.runs))*runBytes + e.fileBytes
	if e.ckix != nil {
		b += e.ckix.Bytes()
	}
	return b
}

// dropEntry releases an entry's out-of-heap resources: columnar entries
// close their mapping and delete their backing file (through the store's
// spill filesystem, so the torture harness sees the delete too). In-memory
// entries are garbage collected and need nothing. Callers hold the store
// mutex.
func (s *Store) dropEntry(e *storeEntry) {
	if e.cf != nil {
		e.cf.Close()
		e.cf = nil
	}
	if e.path != "" {
		fsys := s.fsys
		if fsys == nil {
			fsys = crashfs.OS()
		}
		fsys.Remove(e.path)
		e.path = ""
	}
}

// Stats reports store activity; Idle is the byte count held only by the
// memoization cache (no outstanding handle).
type Stats struct {
	Hits, Misses, Evictions int64
	// Spills counts columnar traces generated to disk (cache misses on the
	// Columnar tier); SpillBytes is their current total on-disk footprint.
	Spills     int64
	SpillBytes int64
	IdleBytes  int64
	// Entries counts memoized trace entries (refs, runs, columnar).
	// Checkpoint indexes — metadata about traces, not traces — are reported
	// separately as CheckpointEntries/CheckpointBytes/Checkpoints.
	Entries           int
	CheckpointEntries int
	CheckpointBytes   int64
	Checkpoints       int64 // total restore points across all indexes
}

// Store memoizes materialized instruction traces keyed by
// (profile, seed, instruction count). Entries are ref-counted:
// Instr returns the trace together with a release function, and a released
// entry stays cached — up to the idle-byte budget, evicting least-recently
// used idle entries beyond it — so sequential experiments over the same
// suite reuse each other's generation work.
//
// The returned slice is shared by every holder of the same key and MUST be
// treated as read-only.
type Store struct {
	mu         sync.Mutex
	entries    map[storeKey]*storeEntry
	idleBudget int64
	hardBudget int64 // 0 = unlimited
	idleBytes  int64
	tick       int64
	stats      Stats
	dir        string     // lazily created spill directory for columnar files
	dirOwned   bool       // dir was MkdirTemp'd by the store (Purge may remove it)
	fsys       crashfs.FS // spill-file I/O; nil = the real OS (see SetSpillFS)
	spillSeq   int64      // publication counter for trace-<seq>.ibsc names

	// ckEvery is the recording interval for new checkpoint indexes
	// (0 = DefaultCheckpointEvery; see seek.go).
	ckEvery int64
}

// NewStore returns an empty store keeping at most idleBudget bytes of
// unreferenced traces cached (0 caches nothing once released) and no hard
// materialization limit.
func NewStore(idleBudget int64) *Store {
	return NewStoreLimits(idleBudget, 0)
}

// NewStoreLimits returns a store with both an idle-cache budget and a hard
// per-trace materialization budget: a request whose trace form would
// retain more than hardBudget bytes fails with ErrOverBudget instead of
// attempting the allocation, and Acquire steps down to a cheaper form.
// hardBudget 0 means unlimited.
func NewStoreLimits(idleBudget, hardBudget int64) *Store {
	return &Store{entries: make(map[storeKey]*storeEntry), idleBudget: idleBudget, hardBudget: hardBudget}
}

// refBytes is the retained size of one trace.Ref (16 bytes with padding);
// runBytes that of one trace.Run (24 bytes with padding).
const (
	refBytes = 16
	runBytes = 24
)

// TraceBytes estimates the bytes a store retains for one materialized
// n-instruction trace; withRuns adds the worst case of its run-length
// compaction (one run per ref). This is the same arithmetic Instr and
// InstrRuns check against the hard budget, exported so admission control
// (cmd/ibsimd's weighted limiter) can weigh a request before committing to
// the allocation.
func TraceBytes(n int64, withRuns bool) int64 {
	if n <= 0 {
		return 0
	}
	if withRuns {
		return n * (refBytes + runBytes)
	}
	return n * refBytes
}

// Instr returns prof's instruction-only trace for (seed, n) — the same
// stream InstrTrace generates — memoized across callers. The release
// function must be called exactly once when the caller is done with the
// slice; it is safe to call from any goroutine. Concurrent acquires of the
// same key share one generation.
func (s *Store) Instr(prof Profile, seed uint64, n int64) ([]trace.Ref, func(), error) {
	return s.InstrCtx(context.Background(), prof, seed, n)
}

// InstrCtx is Instr honoring ctx: a caller waiting on another goroutine's
// in-flight generation returns ctx.Err() as soon as ctx is done, instead of
// blocking to completion. The generation itself is not interrupted (another
// caller may still want it); an abandoned wait releases the caller's
// reference, so it cannot leak the entry.
func (s *Store) InstrCtx(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Ref, func(), error) {
	e, release, err := s.instr(ctx, prof, seed, n)
	if err != nil {
		return nil, nil, err
	}
	return e.refs, release, nil
}

// instr acquires the kindRefs entry for (prof, seed, n).
func (s *Store) instr(ctx context.Context, prof Profile, seed uint64, n int64) (*storeEntry, func(), error) {
	if s.hardBudget > 0 && n*refBytes > s.hardBudget {
		return nil, nil, fmt.Errorf("%w: %d refs need %d bytes, budget %d",
			ErrOverBudget, n, n*refBytes, s.hardBudget)
	}
	return s.acquire(ctx, storeKey{prof: prof, seed: seed, n: n, kind: kindRefs}, func() (payload, error) {
		refs, err := s.instrTrace(prof, seed, n)
		return payload{refs: refs}, err
	})
}

// InstrRuns is InstrCtx returning, alongside the memoized trace, its
// run-length compaction (trace.Compact), computed once per entry and shared
// by every holder. Both slices are covered by the single release function
// and MUST be treated as read-only. The exhibit runners
// (internal/experiments) are the intended consumer: their sweeps, replay
// banks and line-event passes read the same runs without recompacting them,
// while the per-reference reference paths read the refs of the same entry.
func (s *Store) InstrRuns(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Ref, []trace.Run, func(), error) {
	// Worst case (no sequentiality at all) the compaction retains one run
	// per ref, so budget for both slices up front.
	if s.hardBudget > 0 && n*(refBytes+runBytes) > s.hardBudget {
		return nil, nil, nil, fmt.Errorf("%w: %d refs with runs need up to %d bytes, budget %d",
			ErrOverBudget, n, n*(refBytes+runBytes), s.hardBudget)
	}
	e, release, err := s.instr(ctx, prof, seed, n)
	if err != nil {
		return nil, nil, nil, err
	}
	e.runsOnce.Do(func() {
		runs := trace.Compact(e.refs)
		s.mu.Lock()
		e.runs = runs
		s.mu.Unlock()
	})
	return e.refs, e.runs, release, nil
}

// RunsOnly returns prof's run-length-compacted instruction trace for
// (seed, n) WITHOUT materializing the per-reference stream: generation
// streams through an incremental trace.Compactor, so peak memory is O(runs)
// — about 3.3 bytes per instruction on the IBS traces against the refs' 16
// (instruction fetch is overwhelmingly sequential). It is Acquire's first
// tier: a request whose refs would exceed the hard budget usually still
// fits as runs. Unlike Instr, the hard budget is enforced against the
// ACTUAL compacted size as it grows, not a worst-case estimate; a
// pathologically non-sequential stream aborts with ErrOverBudget
// mid-generation. The slice is shared and read-only; the release function
// must be called exactly once.
func (s *Store) RunsOnly(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Run, func(), error) {
	e, release, err := s.acquire(ctx, storeKey{prof: prof, seed: seed, n: n, kind: kindRuns}, func() (payload, error) {
		runs, err := s.compactStream(prof, seed, n)
		return payload{runs: runs}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.runs, release, nil
}

// Tier names the form in which Acquire serves a trace, cheapest first.
type Tier uint8

const (
	// TierRuns is the memoized run compaction in RAM (RunsOnly).
	TierRuns Tier = iota
	// TierColumnar is the on-disk columnar spill, read block by block
	// (Columnar).
	TierColumnar
	// TierSeek is checkpointed regeneration in O(1) memory (SeekSource); it
	// never fails the budget.
	TierSeek
)

// String returns the tier's name.
func (t Tier) String() string {
	switch t {
	case TierRuns:
		return "runs"
	case TierColumnar:
		return "columnar"
	case TierSeek:
		return "seek"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// Acquire returns prof's instruction trace for (seed, n) as the cheapest
// run reader the hard budget admits: the memoized run compaction, else the
// on-disk columnar spill, else checkpointed regeneration. Every tier reads
// exactly the instructions trace.Compact(InstrTrace(prof, seed, n)) holds,
// so a consumer sees the tier only in what a read costs: a skip-mode
// sampling schedule generates just its windows at the seek tier, while any
// schedule that reads every instruction regenerates the whole trace there.
// Only ErrOverBudget steps down; any other failure (ctx done, spill I/O) is
// returned as is. The reader belongs to the caller (a RunReader is not safe
// for concurrent use); the release function must be called exactly once,
// after which the reader must not be used.
func (s *Store) Acquire(ctx context.Context, prof Profile, seed uint64, n int64) (trace.RunReader, Tier, func(), error) {
	runs, release, err := s.RunsOnly(ctx, prof, seed, n)
	if err == nil {
		return trace.NewRunReader(runs), TierRuns, release, nil
	}
	if !errors.Is(err, ErrOverBudget) {
		return nil, 0, nil, err
	}
	cf, release, err := s.Columnar(ctx, prof, seed, n)
	if err == nil {
		return trace.NewBlockReader(cf), TierColumnar, release, nil
	}
	if !errors.Is(err, ErrOverBudget) {
		return nil, 0, nil, err
	}
	src, release, err := s.SeekSource(prof, seed, n)
	if err != nil {
		return nil, 0, nil, err
	}
	return trace.NewSeekReader(src), TierSeek, release, nil
}

// acquire is the lookup every memoized tier shares. It takes a reference to
// key's entry, creating the entry and running fill to populate it on a
// miss, or waiting under ctx for another caller's fill on a hit. fill runs
// outside the store mutex; its result is published under it, so Stats and
// the idle accounting never race a fill. A waiter abandoned by ctx and a
// failed fill both drop their reference, so neither leaks the entry. On
// success the caller holds the entry until it calls the returned release.
func (s *Store) acquire(ctx context.Context, key storeKey, fill func() (payload, error)) (*storeEntry, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The instruction stream ignores the data profile, so profiles differing
	// only there share one entry.
	key.prof.Data = DataProfile{}
	s.mu.Lock()
	e, hit := s.entries[key]
	if hit {
		s.stats.Hits++
		if e.refcount == 0 {
			// Leaving the idle cache: its bytes are accounted to the holder.
			s.idleBytes -= entryBytes(e)
		}
	} else {
		s.stats.Misses++
		e = &storeEntry{ready: make(chan struct{})}
		s.entries[key] = e
	}
	e.refcount++
	s.tick++
	e.lastUse = s.tick
	s.mu.Unlock()

	if hit {
		select {
		case <-e.ready:
		case <-ctx.Done():
			// Safe: the filling caller holds its own reference until the
			// entry is ready, so this decrement cannot free it mid-fill.
			s.release(key, e)
			return nil, nil, ctx.Err()
		}
	} else {
		p, err := fill()
		s.mu.Lock()
		e.payload, e.err = p, err
		s.mu.Unlock()
		close(e.ready)
	}
	if e.err != nil {
		s.release(key, e)
		return nil, nil, e.err
	}
	return e, s.releaseOnce(key, e), nil
}

// budgetCheckMask sets how often compactStream re-checks the growing
// compaction against the hard budget (every 4K instructions).
const budgetCheckMask = 1<<12 - 1

// instrTrace is InstrTrace through a store-attached generator: the pass
// registers checkpoints in the shared index as it materializes, so the
// bytes spent generating also buy O(interval) seeks for every later pass.
func (s *Store) instrTrace(prof Profile, seed uint64, n int64) ([]trace.Ref, error) {
	g, done, err := s.seekGen(prof, seed)
	if err != nil {
		return nil, err
	}
	defer done()
	out := make([]trace.Ref, n)
	for i := range out {
		out[i], _ = g.Next()
	}
	return out, nil
}

// compactStream generates prof's instruction stream and compacts it on the
// fly, enforcing the store's hard budget against the runs actually retained.
// It registers checkpoints in the store's shared index as it streams, and
// resumes from the longest memoized runs-only prefix of the same workload
// (seeking the generator past it) instead of recompacting from zero.
func (s *Store) compactStream(prof Profile, seed uint64, n int64) ([]trace.Run, error) {
	g, done, err := s.seekGen(prof, seed)
	if err != nil {
		return nil, err
	}
	defer done()
	var c trace.Compactor
	if prefix, start := s.runsPrefix(prof, seed, n); start > 0 {
		c.Resume(prefix)
		if err := g.SeekTo(start); err != nil {
			return nil, err
		}
	}
	for g.Instructions() < n {
		r, _ := g.Next()
		c.Add(r)
		if g.Instructions()&budgetCheckMask == 0 && s.hardBudget > 0 && int64(c.Len())*runBytes > s.hardBudget {
			return nil, fmt.Errorf("%w: run compaction of %d instructions already needs over %d bytes",
				ErrOverBudget, n, s.hardBudget)
		}
	}
	runs := c.Finish()
	if s.hardBudget > 0 && int64(len(runs))*runBytes > s.hardBudget {
		return nil, fmt.Errorf("%w: %d runs need %d bytes, budget %d",
			ErrOverBudget, len(runs), int64(len(runs))*runBytes, s.hardBudget)
	}
	return runs, nil
}

// releaseOnce wraps release so double-calling a handle's release is a no-op.
func (s *Store) releaseOnce(key storeKey, e *storeEntry) func() {
	var once sync.Once
	return func() { once.Do(func() { s.release(key, e) }) }
}

// release drops one reference; the last holder moves the entry into the
// idle cache (or out of the store entirely when over budget or failed).
func (s *Store) release(key storeKey, e *storeEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.refcount--
	if e.refcount > 0 {
		return
	}
	if e.err != nil {
		// A failed generation may already have been replaced by a fresh
		// attempt under the same key; only remove this entry.
		if cur, ok := s.entries[key]; ok && cur == e {
			delete(s.entries, key)
		}
		s.dropEntry(e)
		return
	}
	s.tick++
	e.lastUse = s.tick
	s.idleBytes += entryBytes(e)
	s.evictLocked()
}

// evictLocked removes least-recently-used idle entries until the idle bytes
// fit the budget.
func (s *Store) evictLocked() {
	for s.idleBytes > s.idleBudget {
		var victimKey storeKey
		var victim *storeEntry
		for k, e := range s.entries {
			if e.refcount != 0 || entryBytes(e) == 0 {
				// Zero-byte entries (e.g. still-empty checkpoint indexes)
				// free nothing; evicting them would only spin the loop.
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		s.idleBytes -= entryBytes(victim)
		delete(s.entries, victimKey)
		s.dropEntry(victim)
		s.stats.Evictions++
	}
}

// Purge drops every idle entry — in-memory and on-disk — regardless of the
// idle budget, and removes the store's spill directory if the store created
// it (a throwaway temp dir) and it is now empty; a directory configured via
// SetSpillDir belongs to the caller and is left in place. Entries still
// referenced by an outstanding handle are untouched. Intended for orderly
// shutdown (cmd/ibsimd) and tests; the store remains usable.
func (s *Store) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.entries {
		if e.refcount != 0 {
			continue
		}
		s.idleBytes -= entryBytes(e)
		delete(s.entries, k)
		s.dropEntry(e)
		s.stats.Evictions++
	}
	if s.dir != "" && s.dirOwned {
		if err := os.Remove(s.dir); err == nil {
			s.dir = ""
			s.dirOwned = false
		}
	}
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.IdleBytes = s.idleBytes
	for k, e := range s.entries {
		st.SpillBytes += e.fileBytes
		if k.kind == kindCheckpoints {
			st.CheckpointEntries++
			if e.ckix != nil {
				cst := e.ckix.Stats()
				st.CheckpointBytes += cst.Bytes
				st.Checkpoints += int64(cst.Count)
			}
			continue
		}
		st.Entries++
	}
	return st
}
