package synth

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// collectRefs reads k references from g.
func collectRefs(t *testing.T, g *Generator, k int) []trace.Ref {
	t.Helper()
	out := make([]trace.Ref, k)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestSnapshotRestoreBitIdentical is the core property: restoring a snapshot
// into a fresh generator (same profile, seed) continues the stream
// bit-identically to the uninterrupted original — including mid-instruction
// pending data references, across randomized workloads, seeds and snapshot
// points.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	rng := xrand.New(0xC0FFEE)
	names := Names()
	for trial := 0; trial < 12; trial++ {
		name := names[rng.Intn(len(names))]
		prof, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Uint64() | 1
		at := 100 + rng.Intn(20_000)
		tail := 1 + rng.Intn(5000)

		orig := MustNewGenerator(prof, seed)
		collectRefs(t, orig, at)
		snap := orig.Snapshot()
		want := collectRefs(t, orig, tail)

		fresh := MustNewGenerator(prof, seed)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("%s seed %#x: Restore: %v", name, seed, err)
		}
		got := collectRefs(t, fresh, tail)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s seed %#x snapshot@%d: ref %d = %+v, want %+v", name, seed, at, i, got[i], want[i])
			}
		}
		if fresh.WalkStats() != orig.WalkStats() {
			t.Fatalf("%s seed %#x: walk stats diverged: %+v vs %+v", name, seed, fresh.WalkStats(), orig.WalkStats())
		}
	}
}

// TestSeekToEqualsGenerateAndDiscard: SeekTo(i) lands exactly where reading
// and discarding everything before instruction i would, for random i in both
// directions, with and without a checkpoint index.
func TestSeekToEqualsGenerateAndDiscard(t *testing.T) {
	prof, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60_000
	rng := xrand.New(42)
	for _, withIndex := range []bool{false, true} {
		g := MustNewGenerator(prof, 7)
		if withIndex {
			g.SetCheckpoints(NewCheckpointIndex(minCheckpointEvery))
			collectRefs(t, g, 3*n/2) // warm the index
		}
		for trial := 0; trial < 8; trial++ {
			i := int64(rng.Intn(n))
			if err := g.SeekTo(i); err != nil {
				t.Fatal(err)
			}
			got := collectRefs(t, g, 64)

			ref := MustNewGenerator(prof, 7)
			for ref.Instructions() < i || (ref.Instructions() == i && ref.npend > 0) {
				ref.Next()
			}
			want := collectRefs(t, ref, 64)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("withIndex=%v SeekTo(%d): ref %d = %+v, want %+v", withIndex, i, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRestoreRejectsCorruptAndMismatched: a checkpoint restored into a
// generator it does not belong to — another seed, another domain set, or
// the zero Checkpoint — must be rejected with ErrBadCheckpoint, leaving the
// generator untouched.
func TestRestoreRejectsCorruptAndMismatched(t *testing.T) {
	gs, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Lookup("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	g := MustNewGenerator(gs, 3)
	collectRefs(t, g, 5000)
	snap := g.Snapshot()

	cases := []struct {
		name string
		g    *Generator
		ck   Checkpoint
	}{
		{"another seed", MustNewGenerator(gs, 4), snap},
		{"another domain set", MustNewGenerator(spec, 3), snap},
		{"zero checkpoint", MustNewGenerator(gs, 3), Checkpoint{}},
	}
	if len(cases[1].g.domains) == len(g.domains) {
		t.Fatalf("eqntott and gs both have %d domains; pick profiles that differ", len(g.domains))
	}
	for _, c := range cases {
		collectRefs(t, c.g, 100)
		before := c.g.Snapshot()
		if err := c.g.Restore(c.ck); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: Restore = %v, want ErrBadCheckpoint", c.name, err)
		}
		if after := c.g.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: failed Restore mutated the generator", c.name)
		}
	}
}

// TestSeekToSameCheckpointTwice: seeking back to one checkpoint after
// generating thousands of instructions from it must land on the same
// stream again. A Snapshot or Restore that shares a call stack with the
// index lets the generation in between rewrite the stored checkpoint.
func TestSeekToSameCheckpointTwice(t *testing.T) {
	prof, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	const target = 16 * minCheckpointEvery
	ix := NewCheckpointIndex(minCheckpointEvery)
	g := MustNewGenerator(prof, 11)
	g.SetCheckpoints(ix)
	collectRefs(t, g, int(3*target)) // record checkpoints past the target
	if ck, ok := ix.Nearest(target); !ok || ck.instrs != target {
		t.Fatalf("no checkpoint recorded at instruction %d", target)
	}

	ref := MustNewGenerator(prof, 11)
	if err := ref.SeekTo(target); err != nil {
		t.Fatal(err)
	}
	want := collectRefs(t, ref, 5000)
	for pass := 0; pass < 2; pass++ {
		if err := g.SeekTo(target); err != nil {
			t.Fatal(err)
		}
		got := collectRefs(t, g, len(want))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: ref %d after SeekTo(%d) = %+v, want %+v", pass, i, target, got[i], want[i])
			}
		}
	}
}

// TestSeekSourceMatchesInstrSource: the generator's run reader yields
// exactly trace.Compact of InstrTrace's stream over every window — maximal
// runs, cut only at the window edges — with and without a checkpoint index:
// forward reads, a read that continues the last one, backward reads (one to
// before the first checkpoint, which regenerates, and one that must restore
// a checkpoint), reads clipped at the end, zero-length and unbounded ones.
// fn's error stops a read and comes back unchanged. The regenerated subtest
// seeks by generating from instruction zero, the checkpointed one through
// the index.
func TestSeekSourceMatchesInstrSource(t *testing.T) {
	prof, err := Lookup("sdet")
	if err != nil {
		t.Fatal(err)
	}
	const total = 20_000
	want, err := InstrTrace(prof, 5, total)
	if err != nil {
		t.Fatal(err)
	}
	windows := []struct{ pos, n int64 }{
		{0, 1}, {0, 100}, {100, 50}, {500, 3000}, {total - 10, 100}, {total, 50},
		{7, 1}, {2, 9000}, // backward after a long read
		{total / 2, 1}, {total/2 - 1000, 2000}, // backward past a checkpoint
		{0, total}, {3, math.MaxInt64}, {total / 3, 0}, {0, math.MaxInt64},
	}
	for _, indexed := range []bool{false, true} {
		name := "regenerated"
		var ix *CheckpointIndex
		if indexed {
			name = "checkpointed"
			ix = NewCheckpointIndex(minCheckpointEvery)
		}
		t.Run(name, func(t *testing.T) {
			ss, err := NewSeekSource(prof, 5, total, ix)
			if err != nil {
				t.Fatal(err)
			}
			if ss.Total() != total {
				t.Fatalf("Total %d, want %d", ss.Total(), total)
			}
			var at int64 // where the last read ended
			for _, w := range windows {
				lo, hi := min(w.pos, total), min(w.pos+w.n, total)
				if w.pos+w.n < w.pos {
					hi = total
				}
				if indexed && w.pos < at && w.pos >= minCheckpointEvery {
					if _, ok := ix.Nearest(w.pos); !ok {
						t.Fatalf("read(%d,%d): no checkpoint to restore below the source at %d", w.pos, w.n, at)
					}
				}
				var got []trace.Run
				calls := 0
				err := ss.ReadRuns(w.pos, w.n, func(rs []trace.Run) error {
					calls++
					got = append(got, rs...)
					return nil
				})
				if err != nil {
					t.Fatalf("read(%d,%d): %v", w.pos, w.n, err)
				}
				if exp := trace.Compact(want[lo:hi]); !slices.Equal(got, exp) {
					t.Fatalf("read(%d,%d) = %d runs, want trace.Compact's %d", w.pos, w.n, len(got), len(exp))
				}
				if batches := int((hi - lo) / readBatch); calls < batches {
					t.Fatalf("read(%d,%d) called fn %d times, want at least %d", w.pos, w.n, calls, batches)
				}
				if hi > lo {
					at = hi
				}
			}
			boom := errors.New("stop")
			calls := 0
			if err := ss.ReadRuns(0, total, func([]trace.Run) error { calls++; return boom }); err != boom || calls != 1 {
				t.Fatalf("err %v after %d calls, want the fn error after 1", err, calls)
			}
		})
	}
}

// TestSeekSourceMatchesCompact: over random workloads, seeds and lengths,
// reading the stream front to back in chunks of random size — some inside
// one read batch, some spanning several — yields trace.Compact of each
// chunk, and one read of the whole stream yields trace.Compact of all of
// it: a run open at the end of a read batch continues into the next.
func TestSeekSourceMatchesCompact(t *testing.T) {
	rng := xrand.New(99)
	names := Names()
	for trial := 0; trial < 20; trial++ {
		name := names[rng.Intn(len(names))]
		prof, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(rng.Intn(1000))
		total := int64(2*readBatch + rng.Intn(4*readBatch))
		want, err := InstrTrace(prof, seed, total)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewSeekSource(prof, seed, total, nil)
		if err != nil {
			t.Fatal(err)
		}
		read := func(pos, n int64) ([]trace.Run, int) {
			var got []trace.Run
			calls := 0
			if err := ss.ReadRuns(pos, n, func(rs []trace.Run) error {
				calls++
				got = append(got, rs...)
				return nil
			}); err != nil {
				t.Fatalf("trial %d (%s seed %d): read(%d,%d): %v", trial, name, seed, pos, n, err)
			}
			return got, calls
		}
		for pos := int64(0); pos < total; {
			n := min(1+int64(rng.Intn(3*readBatch)), total-pos)
			got, _ := read(pos, n)
			if exp := trace.Compact(want[pos : pos+n]); !slices.Equal(got, exp) {
				t.Fatalf("trial %d (%s seed %d): read(%d,%d) = %d runs, want trace.Compact's %d", trial, name, seed, pos, n, len(got), len(exp))
			}
			pos += n
		}
		got, calls := read(0, total)
		if exp := trace.Compact(want); !slices.Equal(got, exp) {
			t.Fatalf("trial %d (%s seed %d): whole read = %d runs, want trace.Compact's %d", trial, name, seed, len(got), len(exp))
		}
		if calls < 2 {
			t.Fatalf("trial %d (%s seed %d): whole read of %d instructions in %d fn calls, want several", trial, name, seed, total, calls)
		}
	}
}

// TestStoreRunsOnlyPrefixResume: growing a runs-only entry from a memoized
// shorter one must equal compacting from scratch.
func TestStoreRunsOnlyPrefixResume(t *testing.T) {
	prof, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	warm := NewStore(DefaultIdleBudget)
	warm.SetCheckpointEvery(minCheckpointEvery)
	short, rel1, err := warm.RunsOnly(ctx, prof, 0, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) == 0 {
		t.Fatal("no runs")
	}
	rel1()
	resumed, rel2, err := warm.RunsOnly(ctx, prof, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()

	cold := NewStore(DefaultIdleBudget)
	want, rel3, err := cold.RunsOnly(ctx, prof, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	defer rel3()
	if len(resumed) != len(want) {
		t.Fatalf("resumed compaction has %d runs, scratch %d", len(resumed), len(want))
	}
	for i := range want {
		if resumed[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, resumed[i], want[i])
		}
	}
}

// TestStoreResumesInsideRun: a memoized prefix whose end cuts a sequential
// run still resumes exactly. runsPrefix hands back the prefix without the
// cut run and that run's first instruction, and the columnar spill and
// RunsOnly of the longer trace, both resumed from there, equal
// trace.Compact(InstrTrace); RunsOnly's runs span several chunks and come
// back with no spare capacity.
func TestStoreResumesInsideRun(t *testing.T) {
	prof, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400_000
	refs, err := InstrTrace(prof, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Compact(refs)
	if len(want) < 2*runChunk {
		t.Fatalf("only %d runs: the trace does not span several chunks", len(want))
	}
	// The prefix ends one instruction into a run of at least three,
	// about a third of the way in.
	var at int64
	var cutRun trace.Run
	for _, r := range want {
		if at >= n/3 && r.Len >= 3 {
			cutRun = r
			break
		}
		at += r.Len
	}
	cut := at + 1

	ctx := context.Background()
	s := NewStore(DefaultIdleBudget)
	s.SetCheckpointEvery(minCheckpointEvery)
	if err := s.SetSpillDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.Purge()
	short, rel, err := s.RunsOnly(ctx, prof, 0, cut)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if last := short[len(short)-1]; last.Start != cutRun.Start || last.Len != 1 {
		t.Fatalf("prefix ends in run %+v, want the first instruction of %+v", last, cutRun)
	}
	if prefix, start := s.runsPrefix(prof, 0, n); start != at || len(prefix) != len(short)-1 {
		t.Fatalf("runsPrefix = %d runs up to %d, want %d runs up to %d", len(prefix), start, len(short)-1, at)
	}

	cf, relC, err := s.Columnar(ctx, prof, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	defer relC()
	if got := collectColumnar(t, cf); !slices.Equal(got, want) {
		t.Fatalf("resumed spill holds %d runs, trace.Compact %d", len(got), len(want))
	}
	runs, relR, err := s.RunsOnly(ctx, prof, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	defer relR()
	if !slices.Equal(runs, want) || cap(runs) != len(runs) {
		t.Fatalf("resumed RunsOnly: %d runs (cap %d), trace.Compact %d", len(runs), cap(runs), len(want))
	}
}

// TestStoreSeekSourceConcurrent: many goroutines seeking and reading their
// own SeekSource over one shared store index must be race-free (run under
// -race) and each see the exact stream.
func TestStoreSeekSourceConcurrent(t *testing.T) {
	prof, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	want, err := InstrTrace(prof, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(DefaultIdleBudget)
	s.SetCheckpointEvery(minCheckpointEvery)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ss, done, err := s.SeekSource(prof, 0, n)
			if err != nil {
				errc <- err
				return
			}
			defer done()
			rng := xrand.New(uint64(k) + 1)
			for trial := 0; trial < 6; trial++ {
				i := int64(rng.Intn(n - 10))
				var got []trace.Ref
				err := ss.ReadRuns(i, 10, func(runs []trace.Run) error {
					for _, r := range runs {
						got = r.AppendRefs(got)
					}
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
				if !slices.Equal(got, want[i:i+10]) {
					t.Errorf("goroutine %d: refs %d..%d = %+v, want %+v", k, i, i+10, got, want[i:i+10])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
