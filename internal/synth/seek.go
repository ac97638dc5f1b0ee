package synth

import (
	"ibsim/internal/trace"
)

// The generator read as runs.
//
// Every pass the store runs over a generator — memoized run compaction,
// columnar spill, Acquire's seek tier — reads a SeekSource, the one loop
// that turns the generated instruction stream into the runs every simulator
// consumes. Each attaches the store's per-(profile, seed) CheckpointIndex,
// so it leaves behind a trail of restore points as a side effect. Later
// passes over the same workload then position themselves in
// O(checkpoint interval) instead of regenerating from instruction zero:
// skip-mode sampled sweeps jump straight to window starts, and RunsOnly and
// Columnar resume from the longest memoized prefix.

// SeekSource reads prof's n-instruction fetch stream as a trace.RunReader,
// generating only the instructions a read covers: a skip-mode sampling
// schedule costs O(sampled instructions + windows × checkpoint interval)
// instead of O(n). A SeekSource is not safe for concurrent use.
type SeekSource struct {
	g    *Generator
	n    int64
	runs []trace.Run // the batch ReadRuns hands fn
}

// readBatch is the most instructions ReadRuns generates between two fn
// calls, so a caller checking a budget in fn checks it that often.
const readBatch = 1 << 12

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

// ReadRuns implements trace.RunReader. A read that starts where the last
// one ended continues the generator; any other seeks first (SeekTo). fn
// gets the maximal runs of [pos, pos+n), cut only at the range edges: each
// call holds the runs closed by at most readBatch generated instructions,
// and the last call also the run the range end cuts. This is the one place
// that decides where a run of generated instructions continues: a run
// breaks on any non-sequential step, on a domain change, and at the top of
// the address space, as in trace.Compact.
func (ss *SeekSource) ReadRuns(pos, n int64, fn func([]trace.Run) error) error {
	end := pos + n
	if end > ss.n || end < pos {
		end = ss.n
	}
	if pos >= end {
		return nil
	}
	g := ss.g
	if g.instrs != pos {
		if err := g.SeekTo(pos); err != nil {
			return err
		}
	}
	// The open run, kept in locals across the batch; next is the address
	// that extends it, and 0 also flags that no run is open.
	var start, next uint64
	var length int64
	var dom trace.Domain
	for g.instrs < end {
		stop := min(end, g.instrs+readBatch)
		runs := ss.runs[:0]
		for g.instrs < stop {
			r := g.Next()
			if r.Addr == next && r.Domain == dom && next != 0 {
				length++
				next += trace.InstrBytes
				continue
			}
			if length > 0 {
				runs = append(runs, trace.Run{Start: start, Len: length, Domain: dom})
			}
			start, length, dom = r.Addr, 1, r.Domain
			next = r.Addr + trace.InstrBytes // wraps to < InstrBytes at the address-space top, breaking the run
		}
		if g.instrs == end {
			runs = append(runs, trace.Run{Start: start, Len: length, Domain: dom})
		}
		ss.runs = runs
		if len(runs) > 0 {
			if err := fn(runs); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeekTo positions the source so the next read continues from instruction
// i (clamped to the stream length).
func (ss *SeekSource) SeekTo(i int64) error {
	if i > ss.n {
		i = ss.n
	}
	return ss.g.SeekTo(i)
}

// Total implements trace.RunReader: the stream length in instructions.
func (ss *SeekSource) Total() int64 { return ss.n }

var _ trace.RunReader = (*SeekSource)(nil)

// checkpoints returns the store's shared checkpoint index for
// (prof, seed) — creating an empty one on first use — together with a
// release function that must be called exactly once. The index's bytes are
// charged to the idle budget like any other entry once every holder
// releases; an evicted index simply starts empty next time. Acquisitions are
// not counted in Stats.Hits/Misses (the index is metadata about a trace, not
// a trace).
func (s *Store) checkpoints(prof Profile, seed uint64) (*CheckpointIndex, func()) {
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

// SeekSource returns a seekable run reader over prof's n-instruction
// stream, backed by the store's shared checkpoint index: seeks cost
// O(checkpoint interval) once any pass over the workload has run, and the
// source itself records as it reads, so checkpoints accumulate as a side
// effect of every store pass. It never materializes the trace and so never
// fails the hard budget. The release function must be called exactly once,
// after which the source must not be used.
func (s *Store) SeekSource(prof Profile, seed uint64, n int64) (*SeekSource, func(), error) {
	src, err := NewSeekSource(prof, seed, n, nil)
	if err != nil {
		return nil, nil, err
	}
	ix, done := s.checkpoints(prof, seed)
	src.g.SetCheckpoints(ix)
	return src, done, nil
}

// runsPrefix returns the longest ready memoized runs-only compaction for
// (prof, seed) covering at most n instructions, without its last run, and
// the instruction at which that run starts: a longer compaction keeps the
// runs and generates from there. The prefix's end may cut its last run,
// but a run starts at that instruction in any compaction of the stream, so
// the runs read from there continue the prefix with no seam to merge. The
// slice is the shared entry's and is read-only. Returns (nil, 0) when no
// usable prefix is cached.
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
		if e.err != nil || len(e.runs) == 0 {
			continue
		}
		best, bestN = e, k.n
	}
	if best == nil {
		return nil, 0
	}
	last := len(best.runs) - 1
	return best.runs[:last:last], bestN - best.runs[last].Len
}
