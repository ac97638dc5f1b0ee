package synth

import (
	"fmt"
	"sync"

	"ibsim/internal/trace"
)

// Columnar spill bodies: the generation → run-compaction → PutRun stage of
// writeColumnar, in a sequential and a parallel flavor. Both emit the exact
// PutRun sequence trace.Compact over the full stream would produce, so the
// resulting files are byte-identical however the work was split (pinned by
// the differential/parallel-spill check in internal/check).
//
// The parallel flavor is a scout/worker/merger pipeline keyed on the
// checkpoint index:
//
//   - the scout walks the trace one chunk (a whole number of checkpoint
//     intervals) at a time, snapshotting the generator at each boundary —
//     O(1) per chunk once the index is warm, a plain generation pass when
//     cold — and dispatches (range, snapshot) jobs;
//   - workers restore the boundary snapshot into their own generator,
//     regenerate just their chunk, and compact it locally;
//   - the merger consumes chunks strictly in order, joins runs that span
//     chunk boundaries under exactly the Compactor extension condition, and
//     feeds the writer.
//
// In-flight chunks are bounded (workers+2), so peak memory stays O(workers ·
// chunk) and the flat-RSS property of the spill tier is preserved. Note: on
// a single-core host the pipeline cannot beat sequential wall-clock — the
// win is real only with parallel hardware.

// minSpillChunkInstrs is the smallest chunk the parallel spill dispatches;
// chunks are rounded up to a whole number of checkpoint intervals at least
// this large, so per-chunk channel overhead stays negligible.
const minSpillChunkInstrs int64 = 1 << 14

// maxSpillWorkers caps the parallel spill's fan-out.
const maxSpillWorkers = 32

// SetSpillWorkers sets how many goroutines future columnar spills use to
// generate and compact chunks (0 or 1 = sequential). The output file is
// byte-identical regardless. More workers than cores cannot help: on a
// single-core host the parallel path is pure overhead.
func (s *Store) SetSpillWorkers(workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if workers > maxSpillWorkers {
		workers = maxSpillWorkers
	}
	s.spillWorkers = workers
}

// spillChunk returns the parallel spill's chunk size for g: the smallest
// multiple of the checkpoint interval ≥ minSpillChunkInstrs, so chunk
// boundaries land exactly on recorded checkpoints.
func spillChunk(g *Generator) int64 {
	every := DefaultCheckpointEvery
	if ix := g.Checkpoints(); ix != nil {
		every = ix.Every()
	}
	chunk := every
	for chunk < minSpillChunkInstrs {
		chunk += every
	}
	return chunk
}

// spillSequential streams g through an inline run compaction into w,
// resuming from the longest memoized runs-only prefix. The extension
// condition mirrors trace.Compactor.Add exactly; only the open run is held.
func (s *Store) spillSequential(g *Generator, prof Profile, seed uint64, n int64, w *trace.ColumnarWriter, cw *countWriter) error {
	var cur trace.Run
	var next uint64
	if prefix, start := s.runsPrefix(prof, seed, n); start > 0 {
		for _, r := range prefix[:len(prefix)-1] {
			if err := w.PutRun(r); err != nil {
				return err
			}
		}
		cur = prefix[len(prefix)-1]
		next = cur.End()
		if err := g.SeekTo(start); err != nil {
			return err
		}
	}
	for g.Instructions() < n {
		r, _ := g.Next()
		if cur.Len > 0 && r.Addr == next && r.Domain == cur.Domain && next != 0 {
			cur.Len++
			next += trace.InstrBytes
		} else {
			if cur.Len > 0 {
				if err := w.PutRun(cur); err != nil {
					return err
				}
			}
			cur = trace.Run{Start: r.Addr, Len: 1, Domain: r.Domain}
			next = r.Addr + trace.InstrBytes
		}
		if g.Instructions()&budgetCheckMask == 0 && s.hardBudget > 0 && cw.n > s.hardBudget {
			return fmt.Errorf("%w: columnar encoding of %d instructions already exceeds %d bytes on disk",
				ErrOverBudget, n, s.hardBudget)
		}
	}
	if cur.Len > 0 {
		return w.PutRun(cur)
	}
	return nil
}

// spillResult is one generated, locally-compacted chunk.
type spillResult struct {
	runs []trace.Run
	err  error
}

// spillJob is one chunk assignment: generate instructions [start, end) from
// the boundary snapshot and deliver the local compaction on out (1-buffered,
// so workers never block on a merger that has moved on).
type spillJob struct {
	start, end int64
	snap       Checkpoint
	out        chan spillResult
}

// spillParallel is the scout/worker/merger pipeline described in the file
// comment. g (the scout's generator) must be store-attached; n is the total
// instruction count.
func (s *Store) spillParallel(g *Generator, n int64, workers int, w *trace.ColumnarWriter, cw *countWriter) error {
	chunk := spillChunk(g)
	inflight := workers + 2
	jobs := make(chan *spillJob, inflight)
	order := make(chan *spillJob, inflight)
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	stop := func() { cancelOnce.Do(func() { close(cancel) }) }

	// Scout.
	go func() {
		defer close(order)
		defer close(jobs)
		for b := int64(0); b < n; b += chunk {
			end := b + chunk
			if end > n {
				end = n
			}
			job := &spillJob{start: b, end: end, out: make(chan spillResult, 1)}
			if err := g.SeekTo(b); err != nil {
				job.out <- spillResult{err: err}
				select {
				case order <- job:
				case <-cancel:
				}
				return
			}
			job.snap = g.Snapshot()
			if ix := g.Checkpoints(); ix != nil && b > 0 {
				// Boundary snapshots double as index checkpoints: the next
				// spill's scout restores instead of regenerating.
				ix.Add(job.snap)
			}
			select {
			case order <- job:
			case <-cancel:
				return
			}
			select {
			case jobs <- job:
			case <-cancel:
				return
			}
		}
	}()

	// Workers.
	var wg sync.WaitGroup
	prof, seed := g.prof, g.seed
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wgen, err := NewGenerator(prof, seed)
			for job := range jobs {
				if err != nil {
					job.out <- spillResult{err: err}
					continue
				}
				job.out <- generateChunk(wgen, job)
			}
		}()
	}

	// Merger: strictly in chunk order, joining boundary-spanning runs under
	// the Compactor extension condition.
	var pending trace.Run
	var firstErr error
	for job := range order {
		if firstErr != nil {
			continue // drain so the scout and workers can exit
		}
		res := <-job.out
		if res.err != nil {
			firstErr = res.err
			stop()
			continue
		}
		runs := res.runs
		if pending.Len > 0 && len(runs) > 0 && pending.End() != 0 &&
			runs[0].Start == pending.End() && runs[0].Domain == pending.Domain {
			runs[0].Start = pending.Start
			runs[0].Len += pending.Len
			pending = trace.Run{}
		}
		if pending.Len > 0 {
			if err := w.PutRun(pending); err != nil {
				firstErr = err
				stop()
				continue
			}
			pending = trace.Run{}
		}
		if len(runs) > 0 {
			for _, r := range runs[:len(runs)-1] {
				if err := w.PutRun(r); err != nil {
					firstErr = err
					break
				}
			}
			if firstErr != nil {
				stop()
				continue
			}
			pending = runs[len(runs)-1]
		}
		if s.hardBudget > 0 && cw.n > s.hardBudget {
			firstErr = fmt.Errorf("%w: columnar encoding of %d instructions already exceeds %d bytes on disk",
				ErrOverBudget, n, s.hardBudget)
			stop()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if pending.Len > 0 {
		return w.PutRun(pending)
	}
	return nil
}

// generateChunk restores the boundary snapshot into wgen and generates and
// compacts the job's instruction range.
func generateChunk(wgen *Generator, job *spillJob) spillResult {
	if err := wgen.Restore(job.snap); err != nil {
		return spillResult{err: err}
	}
	var c trace.Compactor
	for wgen.Instructions() < job.end {
		r, _ := wgen.Next()
		c.Add(r)
	}
	return spillResult{runs: c.Finish()}
}
