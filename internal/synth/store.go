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
// store's hard memory budget. Callers that can consume a stream should fall
// back to Source, which regenerates over budget in O(1) memory.
var ErrOverBudget = errors.New("synth: trace exceeds store hard memory budget")

// DefaultIdleBudget bounds the bytes the default Store keeps alive for
// traces no caller currently holds: roughly two full experiment suites at
// the default 2M-instruction scale.
const DefaultIdleBudget = 1 << 30

// DefaultStore is the process-wide trace store shared by the experiment
// suite, the verification harness, and the CLIs, so each (workload, seed, n)
// trace is generated once per process instead of once per experiment.
var DefaultStore = NewStore(DefaultIdleBudget)

// storeKey identifies one materialized instruction trace. The full Profile
// value (comparable: scalars and fixed-size arrays only) participates so
// same-named variants — e.g. the Mach and Ultrix builds of an IBS workload,
// or a caller-tweaked profile — never alias each other's traces.
type storeKey struct {
	prof Profile
	seed uint64
	n    int64
	// runsOnly marks entries holding only the run-length compaction (no
	// per-reference slice) — RunsOnly's key space, disjoint from Instr's so
	// a budget admitting the runs never aliases an entry holding the refs.
	runsOnly bool
	// columnar marks entries holding an on-disk columnar trace file
	// (Columnar's key space — see columnar.go).
	columnar bool
	// ckpt marks entries holding a checkpoint index for (prof, seed) — the
	// seekable-generation tier's key space (see seek.go). n is always 0: one
	// index serves every trace length of the pair.
	ckpt bool
}

// storeEntry is one memoized trace with its reference count.
type storeEntry struct {
	ready chan struct{} // closed once refs/err are set
	refs  []trace.Ref
	err   error

	// runs is the run-length compaction of refs, computed lazily by the
	// first InstrRuns caller and shared (read-only) from then on. It is
	// assigned under the store mutex so the idle-byte accounting, which
	// reads len(runs) under the same mutex, never races the compaction.
	runsOnce sync.Once
	runs     []trace.Run

	// Columnar entries live on disk instead of in refs/runs: cf is the
	// opened file, path its location, fileBytes its on-disk size (what the
	// budgets charge — the live-memory cost is one mmap'd block).
	cf        *trace.ColumnarFile
	path      string
	fileBytes int64

	// ckix is the checkpoint index of a ckpt entry (see seek.go). Its bytes
	// only change while some holder's generator appends to it, i.e. while
	// refcount > 0, so the idle accounting at the 0-transition stays exact.
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
// memoization cache (no outstanding handle). Fallbacks counts Source
// requests served by streaming regeneration because materializing would
// have exceeded the hard budget.
type Stats struct {
	Hits, Misses, Evictions int64
	Fallbacks               int64
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
	// (0 = DefaultCheckpointEvery); spillWorkers > 1 enables the parallel
	// columnar spill path (see seek.go, spill.go).
	ckEvery      int64
	spillWorkers int
}

// NewStore returns an empty store keeping at most idleBudget bytes of
// unreferenced traces cached (0 caches nothing once released) and no hard
// materialization limit.
func NewStore(idleBudget int64) *Store {
	return NewStoreLimits(idleBudget, 0)
}

// NewStoreLimits returns a store with both an idle-cache budget and a hard
// per-trace materialization budget: an Instr request whose trace would
// retain more than hardBudget bytes fails with ErrOverBudget instead of
// attempting the allocation, and Source degrades to streaming regeneration.
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
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.hardBudget > 0 && n*refBytes > s.hardBudget {
		return nil, nil, fmt.Errorf("%w: %d refs need %d bytes, budget %d",
			ErrOverBudget, n, n*refBytes, s.hardBudget)
	}
	key := storeKey{prof: prof, seed: seed, n: n}
	// InstrTrace zeroes the data profile, so profiles differing only there
	// yield the same instruction stream — normalize to share the entry.
	key.prof.Data = DataProfile{}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
		if e.refcount == 0 {
			// Leaving the idle cache: its bytes are accounted to the holder.
			s.idleBytes -= entryBytes(e)
		}
		e.refcount++
		s.tick++
		e.lastUse = s.tick
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			// Safe: the generating caller holds its own reference until the
			// entry is ready, so this decrement cannot free an unfinished
			// entry out from under it.
			s.release(key, e)
			return nil, nil, ctx.Err()
		}
		if e.err != nil {
			s.release(key, e)
			return nil, nil, e.err
		}
		return e.refs, s.releaseOnce(key, e), nil
	}
	s.stats.Misses++
	e = &storeEntry{ready: make(chan struct{}), refcount: 1}
	s.tick++
	e.lastUse = s.tick
	s.entries[key] = e
	s.mu.Unlock()

	e.refs, e.err = s.instrTrace(prof, seed, n)
	close(e.ready)
	if e.err != nil {
		s.release(key, e)
		return nil, nil, e.err
	}
	return e.refs, s.releaseOnce(key, e), nil
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
	refs, release, err := s.InstrCtx(ctx, prof, seed, n)
	if err != nil {
		return nil, nil, nil, err
	}
	key := storeKey{prof: prof, seed: seed, n: n}
	key.prof.Data = DataProfile{}
	s.mu.Lock()
	// The handle we hold pins the entry: it cannot be evicted or replaced
	// while refcount > 0, so this lookup is exactly our entry.
	e := s.entries[key]
	s.mu.Unlock()
	e.runsOnce.Do(func() {
		runs := trace.Compact(refs)
		s.mu.Lock()
		e.runs = runs
		s.mu.Unlock()
	})
	return refs, e.runs, release, nil
}

// RunsOnly returns prof's run-length-compacted instruction trace for
// (seed, n) WITHOUT materializing the per-reference stream: generation
// streams through an incremental trace.Compactor, so peak memory is O(runs)
// — about 3.3 bytes per instruction on the IBS traces against the refs' 16
// (instruction fetch is overwhelmingly sequential). This is ibsimd's
// in-memory trace path, exact and sampled alike: a request whose refs would
// exceed the hard budget usually still fits as runs. Unlike Instr, the hard
// budget is enforced against the ACTUAL compacted size as it grows, not a
// worst-case estimate; a pathologically non-sequential stream aborts with
// ErrOverBudget mid-generation. The slice is shared and read-only; the
// release function must be called exactly once.
func (s *Store) RunsOnly(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Run, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	key := storeKey{prof: prof, seed: seed, n: n, runsOnly: true}
	key.prof.Data = DataProfile{}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
		if e.refcount == 0 {
			s.idleBytes -= entryBytes(e)
		}
		e.refcount++
		s.tick++
		e.lastUse = s.tick
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			s.release(key, e)
			return nil, nil, ctx.Err()
		}
		if e.err != nil {
			s.release(key, e)
			return nil, nil, e.err
		}
		return e.runs, s.releaseOnce(key, e), nil
	}
	s.stats.Misses++
	e = &storeEntry{ready: make(chan struct{}), refcount: 1}
	s.tick++
	e.lastUse = s.tick
	s.entries[key] = e
	s.mu.Unlock()

	e.runs, e.err = s.compactStream(prof, seed, n)
	close(e.ready)
	if e.err != nil {
		s.release(key, e)
		return nil, nil, e.err
	}
	return e.runs, s.releaseOnce(key, e), nil
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

// Source returns a trace.Source over prof's instruction stream for
// (seed, n). Within the hard budget it is backed by the memoized slice;
// over budget it degrades to streaming regeneration in O(1) memory instead
// of failing, counting the degradation in Stats.Fallbacks. The release
// function must be called exactly once when the caller is done reading.
func (s *Store) Source(prof Profile, seed uint64, n int64) (trace.Source, func(), error) {
	refs, release, err := s.Instr(prof, seed, n)
	if err == nil {
		return trace.NewSliceSource(refs), release, nil
	}
	if !errors.Is(err, ErrOverBudget) {
		return nil, nil, err
	}
	ss, done, err := s.SeekSource(prof, seed, n)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.stats.Fallbacks++
	s.mu.Unlock()
	return ss, done, nil
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
		if k.ckpt {
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
