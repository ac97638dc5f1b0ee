package synth

import (
	"ibsim/internal/trace"
)

// Seekable streaming tier of the store.
//
// Every generation pass the store runs — materializing refs, streaming run
// compaction, columnar spill, Acquire's seek tier — attaches the store's
// per-(profile, seed) CheckpointIndex to its generator, so the pass leaves
// behind a trail of restore points as a side effect. Later passes over the
// same workload then position themselves in O(checkpoint interval) instead
// of regenerating from instruction zero: skip-mode sampled sweeps jump
// straight to window starts, and RunsOnly and Columnar resume from the
// longest memoized prefix.

// SeekSource is a seekable, instruction-only streaming source: exactly the
// stream InstrSource yields, plus SeekTo. It implements trace.Seeker. A
// SeekSource is not safe for concurrent use.
type SeekSource struct {
	g *Generator
	n int64
}

// NewSeekSource returns a seekable source over prof's n-instruction fetch
// stream for seed, recording into (and seeking via) ix. A nil ix is allowed:
// the source still seeks correctly, by regeneration.
func NewSeekSource(prof Profile, seed uint64, n int64, ix *CheckpointIndex) (*SeekSource, error) {
	p := prof
	p.Data = DataProfile{}
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	g.SetCheckpoints(ix)
	return &SeekSource{g: g, n: n}, nil
}

// Next implements trace.Source: the stream ends after the n-th instruction.
func (ss *SeekSource) Next() (trace.Ref, bool) {
	if ss.g.Instructions() >= ss.n {
		return trace.Ref{}, false
	}
	return ss.g.Next()
}

// Err implements trace.Source; generation cannot fail.
func (ss *SeekSource) Err() error { return nil }

// SeekTo positions the source so the next reference is instruction i
// (clamped to the stream length, where Next returns false).
func (ss *SeekSource) SeekTo(i int64) error {
	if i > ss.n {
		i = ss.n
	}
	return ss.g.SeekTo(i)
}

// Pos returns the index of the next instruction Next would yield.
func (ss *SeekSource) Pos() int64 { return ss.g.Instructions() }

// Total returns the stream length in instructions.
func (ss *SeekSource) Total() int64 { return ss.n }

var _ trace.Seeker = (*SeekSource)(nil)

// Checkpoints returns the store's shared checkpoint index for
// (prof, seed) — creating an empty one on first use — together with a
// release function that must be called exactly once. The index's bytes are
// charged to the idle budget like any other entry once every holder
// releases; an evicted index simply starts empty next time. Acquisitions are
// not counted in Stats.Hits/Misses (the index is metadata about a trace, not
// a trace).
func (s *Store) Checkpoints(prof Profile, seed uint64) (*CheckpointIndex, func()) {
	key := storeKey{prof: prof, seed: seed, kind: kindCheckpoints}
	key.prof.Data = DataProfile{}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		ready := make(chan struct{})
		close(ready)
		e = &storeEntry{ready: ready, ckix: NewCheckpointIndex(s.ckEvery)}
		s.entries[key] = e
	} else if e.refcount == 0 {
		s.idleBytes -= entryBytes(e)
	}
	e.refcount++
	s.tick++
	e.lastUse = s.tick
	return e.ckix, s.releaseOnce(key, e)
}

// SetCheckpointEvery sets the recording interval, in instructions, for
// checkpoint indexes the store creates from now on (existing indexes keep
// theirs). Non-positive restores the default.
func (s *Store) SetCheckpointEvery(every int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckEvery = every
}

// seekGen returns an instruction-only generator for (prof, seed) with the
// store's shared checkpoint index attached, plus the index handle's release
// function. Every store generation pass goes through here so checkpoints
// accumulate as a side effect of normal work.
func (s *Store) seekGen(prof Profile, seed uint64) (*Generator, func(), error) {
	p := prof
	p.Data = DataProfile{}
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, nil, err
	}
	ix, done := s.Checkpoints(prof, seed)
	g.SetCheckpoints(ix)
	return g, done, nil
}

// SeekSource returns a seekable streaming source over prof's n-instruction
// stream, backed by the store's shared checkpoint index: seeks cost
// O(checkpoint interval) once any pass over the workload has run (and this
// source itself records as it reads). It never materializes the trace and so
// never fails the hard budget. The release function must be called exactly
// once, after which the source must not be used.
func (s *Store) SeekSource(prof Profile, seed uint64, n int64) (*SeekSource, func(), error) {
	g, done, err := s.seekGen(prof, seed)
	if err != nil {
		return nil, nil, err
	}
	return &SeekSource{g: g, n: n}, done, nil
}

// runsPrefix returns a copy of the longest ready memoized runs-only
// compaction for (prof, seed) covering at most n instructions, and its
// instruction count — the resume point for a longer compaction pass. Returns
// (nil, 0) when no usable prefix is cached.
func (s *Store) runsPrefix(prof Profile, seed uint64, n int64) ([]trace.Run, int64) {
	want := storeKey{prof: prof, seed: seed, kind: kindRuns}
	want.prof.Data = DataProfile{}
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *storeEntry
	var bestN int64
	for k, e := range s.entries {
		if k.kind != kindRuns || k.prof != want.prof || k.seed != want.seed || k.n > n || k.n <= bestN {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // still generating; don't wait
		}
		if e.err != nil {
			continue
		}
		best, bestN = e, k.n
	}
	if best == nil {
		return nil, 0
	}
	cp := make([]trace.Run, len(best.runs))
	copy(cp, best.runs)
	return cp, bestN
}
