package synth

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Checkpointed seekable generation.
//
// A Checkpoint is an in-memory copy of a Generator's *mutable* state: its
// cursor and every domain's domainCursor (RNG states, walk position, call
// stacks, data cursors and counters). The layout (procedure placement, zipf
// tables) is fully determined by (profile, seed) and is not copied: Restore
// only overwrites the mutable state of a generator already built for the
// same profile and seed, which makes a restore a copy rather than a
// relayout.
//
// A CheckpointIndex collects checkpoints at fixed instruction intervals
// during any generation pass. SeekTo(i) restores the nearest checkpoint at
// or below i and fast-forwards the remainder, turning "position a trace at
// instruction i" from O(i) into O(interval) — the primitive behind
// skip-mode sampled streaming and the store's prefix resume.

// DefaultCheckpointEvery is the default checkpoint interval in instructions.
// At ~1 KB per checkpoint this costs ~60 KB per million instructions —
// negligible next to the refs it lets a seek skip.
const DefaultCheckpointEvery int64 = 1 << 14

// minCheckpointEvery bounds how dense an index may get; below this the
// index itself starts to rival the trace in size.
const minCheckpointEvery int64 = 256

// ErrBadCheckpoint reports a checkpoint restored into a generator it does
// not belong to: one with another seed or domain set, or the zero
// Checkpoint.
var ErrBadCheckpoint = errors.New("synth: checkpoint does not belong to this generator")

// Checkpoint is a copy of a generator's mutable state. Its cursor's
// instruction count is where it resumes emission: the next reference
// produced after Restore is instruction fetch number instrs, counting from
// zero.
type Checkpoint struct {
	seed uint64
	cursor
	domains []domainCursor
}

// Instructions returns where ck resumes: the instruction count it was
// taken at.
func (ck Checkpoint) Instructions() int64 { return ck.instrs }

// Snapshot copies the generator's current mutable state. The snapshot is
// valid for any generator built from the same (profile, seed); restoring it
// resumes the stream bit-identically, including any pending data references
// of the last emitted instruction.
func (g *Generator) Snapshot() Checkpoint {
	ck := Checkpoint{seed: g.seed, cursor: g.cursor, domains: make([]domainCursor, len(g.domains))}
	for i, ds := range g.domains {
		ck.domains[i] = ds.domainCursor
		ck.domains[i].stack = slices.Clone(ds.stack)
	}
	return ck
}

// Restore overwrites the generator's mutable state from a checkpoint taken
// on a generator with the same profile and seed. The checkpoint's call
// stacks are copied, never shared, so later generation cannot reach back
// into an index's checkpoints. On error the generator is left exactly as it
// was.
func (g *Generator) Restore(ck Checkpoint) error {
	if ck.seed != g.seed || len(ck.domains) != len(g.domains) {
		return fmt.Errorf("%w: seed %#x with %d domains, generator seeded %#x with %d",
			ErrBadCheckpoint, ck.seed, len(ck.domains), g.seed, len(g.domains))
	}
	g.cursor = ck.cursor
	for i, ds := range g.domains {
		stack := append(ds.stack[:0], ck.domains[i].stack...)
		ds.domainCursor = ck.domains[i]
		ds.stack = stack
	}
	g.syncCkNext()
	return nil
}

// size is the memory ck holds, charged to the store's idle budget.
func (ck *Checkpoint) size() int64 {
	n := unsafe.Sizeof(*ck) + uintptr(len(ck.domains))*unsafe.Sizeof(domainCursor{})
	for _, d := range ck.domains {
		n += uintptr(len(d.stack)) * unsafe.Sizeof(frame{})
	}
	return int64(n)
}

// SetCheckpoints attaches a checkpoint index to the generator: every
// index-interval instructions the generator records a snapshot into ix, and
// SeekTo uses ix to jump instead of regenerating. Passing nil detaches.
func (g *Generator) SetCheckpoints(ix *CheckpointIndex) {
	g.ck = ix
	g.syncCkNext()
}

// syncCkNext computes the next instruction count at which to record a
// checkpoint: the first multiple of the interval strictly above the current
// position. Recording at fixed multiples (rather than "every K from
// wherever we started") makes the set of checkpoint positions identical
// across passes, so concurrent and repeated passes dedup instead of
// accumulating near-duplicate snapshots.
func (g *Generator) syncCkNext() {
	if g.ck == nil {
		return
	}
	every := g.ck.Every()
	g.ckNext = (g.instrs/every + 1) * every
}

// recordCheckpoint is the slow half of the Next() hook: called at most once
// per interval, at an instruction boundary that is a multiple of the
// interval.
func (g *Generator) recordCheckpoint() {
	g.ck.Add(g.Snapshot())
	g.syncCkNext()
}

// SeekTo positions the generator so the next reference it emits is
// instruction fetch number i (0-based), exactly as if it had generated and
// discarded everything before it. It restores the nearest checkpoint at or
// below i when that beats the current position, and fast-forwards the
// remainder.
func (g *Generator) SeekTo(i int64) error {
	if i < 0 {
		return fmt.Errorf("synth: SeekTo(%d): negative target", i)
	}
	// The current position can reach i by advancing iff it is not past it.
	// (At instrs == i with pending data refs, advancing drains the pendings
	// of instruction i-1 and lands exactly on the boundary.)
	curOK := g.instrs <= i
	var ck Checkpoint
	var ok bool
	if g.ck != nil {
		ck, ok = g.ck.Nearest(i)
	}
	if ok && (!curOK || ck.instrs > g.instrs) {
		if err := g.Restore(ck); err != nil {
			return err
		}
	} else if !curOK {
		g.Reset()
	}
	for g.instrs < i || (g.instrs == i && g.npend > 0) {
		g.Next()
	}
	return nil
}

// CheckpointStats summarizes a checkpoint index.
type CheckpointStats struct {
	Count int   `json:"count"`
	Bytes int64 `json:"bytes"`
	Every int64 `json:"every"`
}

// CheckpointIndex is a concurrency-safe, deduplicated set of checkpoints at
// fixed instruction intervals, kept sorted by instruction. One index serves
// every generator of the same (profile, seed); the synth store memoizes one
// per pair and charges its bytes to the budget.
type CheckpointIndex struct {
	every int64

	mu     sync.Mutex
	points []Checkpoint // sorted by instruction count, unique
	bytes  int64
}

// NewCheckpointIndex returns an empty index recording every `every`
// instructions. Values below the minimum (or non-positive) are clamped to
// keep the index from rivaling the trace it summarizes.
func NewCheckpointIndex(every int64) *CheckpointIndex {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if every < minCheckpointEvery {
		every = minCheckpointEvery
	}
	return &CheckpointIndex{every: every}
}

// Every returns the recording interval in instructions.
func (ix *CheckpointIndex) Every() int64 { return ix.every }

// Add inserts ck unless a checkpoint at the same instruction is already
// present. It reports whether the checkpoint was inserted.
func (ix *CheckpointIndex) Add(ck Checkpoint) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	i := sort.Search(len(ix.points), func(k int) bool { return ix.points[k].instrs >= ck.instrs })
	if i < len(ix.points) && ix.points[i].instrs == ck.instrs {
		return false
	}
	ix.points = append(ix.points, Checkpoint{})
	copy(ix.points[i+1:], ix.points[i:])
	ix.points[i] = ck
	ix.bytes += ck.size()
	return true
}

// Nearest returns the checkpoint at the largest instruction count ≤ i.
func (ix *CheckpointIndex) Nearest(i int64) (Checkpoint, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	k := sort.Search(len(ix.points), func(j int) bool { return ix.points[j].instrs > i })
	if k == 0 {
		return Checkpoint{}, false
	}
	return ix.points[k-1], true
}

// Bytes returns the memory all checkpoints hold.
func (ix *CheckpointIndex) Bytes() int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.bytes
}

// Stats returns a snapshot of the index's shape.
func (ix *CheckpointIndex) Stats() CheckpointStats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return CheckpointStats{Count: len(ix.points), Bytes: ix.bytes, Every: ix.every}
}
