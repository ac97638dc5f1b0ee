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
// traces no caller currently holds. The store memoizes run compactions,
// about 3 bytes per instruction on the exhibit traces, so the budget keeps
// all 19 of them warm to roughly 16M instructions each; beyond that the
// least recently used are evicted and regenerated on their next use.
const DefaultIdleBudget = 1 << 30

// DefaultStore is the process-wide trace store shared by the experiment
// suite, the verification harness, and the CLIs, so each (workload, seed, n)
// trace is generated once per process instead of once per experiment.
var DefaultStore = NewStore(DefaultIdleBudget)

// entryKind names the form a store entry holds. Each form has its own key
// space, so a budget admitting one form never aliases an entry holding
// another. No form holds a []trace.Ref: the run compaction is the only
// in-memory trace.
type entryKind uint8

const (
	kindRuns        entryKind = iota // run-length compaction (RunsOnly)
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

// payload is what filling an entry produces: the runs of a kindRuns entry,
// or a columnar entry's opened file cf, its location path and its on-disk
// size fileBytes (what the budgets charge; the live-memory cost is one
// mmap'd block).
type payload struct {
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

	// ckix is the checkpoint index of a kindCheckpoints entry (see
	// seek.go). Its bytes only change while some holder's generator appends
	// to it, i.e. while refcount > 0, so the idle accounting at the
	// 0-transition stays exact.
	ckix *CheckpointIndex

	refcount int
	lastUse  int64 // store tick of the most recent acquire/release
}

// entryBytes is the retained size of an entry: its runs, the on-disk file
// size for columnar entries, or the checkpoint index's bytes. Callers must
// hold the store mutex (the payload is published under it).
func entryBytes(e *storeEntry) int64 {
	b := int64(len(e.runs))*runBytes + e.fileBytes
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
	// Entries counts memoized trace entries (runs, columnar).
	// Checkpoint indexes — metadata about traces, not traces — are reported
	// separately as CheckpointEntries/CheckpointBytes/Checkpoints.
	Entries           int
	CheckpointEntries int
	CheckpointBytes   int64
	Checkpoints       int64 // total restore points across all indexes
}

// Store memoizes instruction traces keyed by (profile, seed, instruction
// count) in the forms Acquire serves: the run compaction in RAM (RunsOnly),
// the columnar spill on disk (Columnar), and per workload the checkpoint
// index that lets regeneration seek (checkpoints). Entries are ref-counted:
// every acquisition returns a release function, and a released entry stays
// cached — up to the idle-byte budget, evicting least-recently used idle
// entries beyond it — so sequential experiments over the same suite reuse
// each other's generation work.
//
// A returned slice or file is shared by every holder of the same key and
// MUST be treated as read-only.
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
	spillSeq   int64      // counter naming the trace-<seq>.ibsc spill files

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

// refBytes is the size of one trace.Ref (16 bytes with padding); runBytes
// that of one trace.Run (24 bytes with padding), which the hard budget
// charges.
const (
	refBytes = 16
	runBytes = 24
)

// TraceBytes is the weight ibsimd's admission limiter charges an
// n-instruction request: the bytes of its references, plus with withRuns
// the worst case of their run compaction (one run per reference). The store
// retains neither — it holds runs only, about 3 bytes per instruction on
// the IBS traces, and charges the hard budget for those — but the weight
// stays ref-sized until admission is sized by the tier Acquire will serve.
func TraceBytes(n int64, withRuns bool) int64 {
	if n <= 0 {
		return 0
	}
	if withRuns {
		return n * (refBytes + runBytes)
	}
	return n * refBytes
}

// InstrCtx returns prof's instruction-only trace for (seed, n) — the stream
// InstrTrace generates — expanded afresh from the memoized run compaction
// (RunsOnly). The store retains only the runs; the slice belongs to the
// caller. The release function releases the runs entry and must be called
// exactly once. A waiter abandoned by ctx returns ctx.Err() without leaking
// the entry.
//
// Deprecated: every call expands 16 bytes per instruction. Read the trace
// through Acquire, and expand it (trace.ExpandReader) only where a
// per-reference oracle needs a []trace.Ref.
func (s *Store) InstrCtx(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Ref, func(), error) {
	refs, _, release, err := s.InstrRuns(ctx, prof, seed, n)
	return refs, release, err
}

// InstrRuns is InstrCtx also returning the memoized runs it expanded, which
// are shared by every holder and MUST be treated as read-only.
//
// Deprecated: every call expands 16 bytes per instruction. Use RunsOnly or
// Acquire.
func (s *Store) InstrRuns(ctx context.Context, prof Profile, seed uint64, n int64) ([]trace.Ref, []trace.Run, func(), error) {
	runs, release, err := s.RunsOnly(ctx, prof, seed, n)
	if err != nil {
		return nil, nil, nil, err
	}
	return trace.Expand(runs), runs, release, nil
}

// RunsOnly returns prof's run-length-compacted instruction trace for
// (seed, n) WITHOUT materializing the per-reference stream: the generator
// is read as runs (SeekSource), so peak memory is O(runs) — about 3.3 bytes
// per instruction on the IBS traces against the refs' 16 (instruction fetch
// is overwhelmingly sequential). It is Acquire's first tier. The hard
// budget is enforced against the ACTUAL compacted size as it grows, not a
// worst-case estimate; a pathologically non-sequential stream aborts with
// ErrOverBudget mid-generation. The slice is shared and
// read-only; the release function must be called exactly once.
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
	return src, TierSeek, release, nil
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

// compactStream reads prof's instruction stream as runs, enforcing the
// store's hard budget against the runs retained after every read batch. It
// registers checkpoints in the store's shared index as it reads, and
// resumes from the longest memoized runs-only prefix of the same workload
// (seeking the generator past it) instead of recompacting from zero.
func (s *Store) compactStream(prof Profile, seed uint64, n int64) ([]trace.Run, error) {
	src, done, err := s.SeekSource(prof, seed, n)
	if err != nil {
		return nil, err
	}
	defer done()
	prefix, start := s.runsPrefix(prof, seed, n)
	c := runChunks{full: [][]trace.Run{prefix}, n: len(prefix)}
	err = src.ReadRuns(start, n-start, func(runs []trace.Run) error {
		c.add(runs)
		if s.hardBudget > 0 && int64(c.n)*runBytes > s.hardBudget {
			return fmt.Errorf("%w: run compaction of %d instructions already needs over %d bytes",
				ErrOverBudget, n, s.hardBudget)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c.join(), nil
}

// runChunks collects a compaction's runs in fixed-size chunks that join
// copies, once, into one slice of exactly the final length. A single slice
// grown by append would at each growth hold both its old and its new
// backing array, and would keep its last growth's unused capacity for as
// long as the trace is memoized.
type runChunks struct {
	full [][]trace.Run // filled chunks (and a read-only resumed prefix), in order
	cur  []trace.Run   // the chunk being filled
	n    int           // runs held
}

// runChunk is the run capacity of one chunk (384 KiB).
const runChunk = 1 << 14

// add copies runs into the chunks.
func (c *runChunks) add(runs []trace.Run) {
	c.n += len(runs)
	for len(runs) > 0 {
		if len(c.cur) == cap(c.cur) {
			if len(c.cur) > 0 {
				c.full = append(c.full, c.cur)
			}
			c.cur = make([]trace.Run, 0, runChunk)
		}
		k := copy(c.cur[len(c.cur):cap(c.cur)], runs)
		c.cur = c.cur[:len(c.cur)+k]
		runs = runs[k:]
	}
}

// join returns every run collected, in one slice whose capacity is its
// length.
func (c *runChunks) join() []trace.Run {
	out := make([]trace.Run, 0, c.n)
	for _, ch := range c.full {
		out = append(out, ch...)
	}
	return append(out, c.cur...)
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
