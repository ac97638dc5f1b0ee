package synth

import (
	"bytes"
	"context"
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
		out[i], _ = g.Next()
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

// TestRestoreRejectsCorruptAndMismatched: every flipped bit in a serialized
// checkpoint must be caught by the CRC, and a checkpoint from a different
// seed must be rejected, leaving the generator untouched.
func TestRestoreRejectsCorruptAndMismatched(t *testing.T) {
	prof, err := Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	g := MustNewGenerator(prof, 3)
	collectRefs(t, g, 5000)
	snap := g.Snapshot()

	rng := xrand.New(9)
	for trial := 0; trial < 32; trial++ {
		bad := Checkpoint{Instr: snap.Instr, Data: bytes.Clone(snap.Data)}
		bit := rng.Intn(len(bad.Data) * 8)
		bad.Data[bit/8] ^= 1 << (bit % 8)

		victim := MustNewGenerator(prof, 3)
		collectRefs(t, victim, 100)
		before := victim.Snapshot()
		if err := victim.Restore(bad); err == nil {
			t.Fatalf("Restore accepted checkpoint with bit %d flipped", bit)
		}
		if after := victim.Snapshot(); !bytes.Equal(after.Data, before.Data) {
			t.Fatalf("failed Restore mutated the generator (bit %d)", bit)
		}
	}

	other := MustNewGenerator(prof, 4)
	if err := other.Restore(snap); err == nil {
		t.Fatal("Restore accepted a checkpoint from a different seed")
	}
}

// TestSeekToSurvivesCorruptCheckpoint: a bit-flipped checkpoint in the index
// must be detected (CRC), dropped, and seeking must transparently fall back —
// ultimately to regeneration from zero — still yielding the exact stream.
func TestSeekToSurvivesCorruptCheckpoint(t *testing.T) {
	prof, err := Lookup("verilog")
	if err != nil {
		t.Fatal(err)
	}
	ix := NewCheckpointIndex(minCheckpointEvery)
	g := MustNewGenerator(prof, 11)
	g.SetCheckpoints(ix)
	collectRefs(t, g, 10_000)
	if ix.Len() == 0 {
		t.Fatal("no checkpoints recorded")
	}

	// Corrupt every checkpoint in the index.
	ix.mu.Lock()
	for i := range ix.points {
		ix.points[i].Data[10] ^= 0xFF
	}
	npoints := len(ix.points)
	ix.mu.Unlock()

	// Seek backward so the nearest-checkpoint restore path must run (a
	// forward seek from the current position would never touch the index).
	const target = 5000
	if err := g.SeekTo(target); err != nil {
		t.Fatalf("SeekTo over corrupt index: %v", err)
	}
	got := collectRefs(t, g, 32)

	ref := MustNewGenerator(prof, 11)
	if err := ref.SeekTo(target); err != nil {
		t.Fatal(err)
	}
	want := collectRefs(t, ref, 32)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d after corrupt-index seek = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := ix.Stats()
	if st.Corrupt == 0 {
		t.Fatal("corrupt checkpoints were not counted")
	}
	_ = npoints
	// The fallback regeneration re-records the intervals it walks, healing
	// the index: a second backward seek must now restore cleanly.
	before := st.Corrupt
	if err := g.SeekTo(target); err != nil {
		t.Fatal(err)
	}
	healed := collectRefs(t, g, 32)
	for i := range want {
		if healed[i] != want[i] {
			t.Fatalf("ref %d after healed-index seek = %+v, want %+v", i, healed[i], want[i])
		}
	}
	if after := ix.Stats().Corrupt; after != before {
		t.Fatalf("healed index still had corrupt checkpoints: %d -> %d", before, after)
	}
}

// TestSeekSourceMatchesInstrSource: the seekable streaming source yields the
// same stream as InstrSource, honors the length limit, and seeks correctly.
func TestSeekSourceMatchesInstrSource(t *testing.T) {
	prof, err := Lookup("sdet")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	ss, err := NewSeekSource(prof, 5, n, NewCheckpointIndex(minCheckpointEvery))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InstrSource(prof, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	for {
		want, okW := plain.Next()
		got, okG := ss.Next()
		if okW != okG {
			t.Fatalf("at %d: ok %v vs %v", count, okG, okW)
		}
		if !okW {
			break
		}
		if got != want {
			t.Fatalf("ref %d = %+v, want %+v", count, got, want)
		}
		count++
	}
	if count != n {
		t.Fatalf("stream length %d, want %d", count, n)
	}
	// Seek back and re-read a slice of the middle.
	if err := ss.SeekTo(n / 2); err != nil {
		t.Fatal(err)
	}
	if ss.Pos() != n/2 {
		t.Fatalf("Pos = %d, want %d", ss.Pos(), n/2)
	}
	r, ok := ss.Next()
	if !ok {
		t.Fatal("Next after SeekTo returned false")
	}
	want, err := InstrTrace(prof, 5, n/2+1)
	if err != nil {
		t.Fatal(err)
	}
	if r != want[n/2] {
		t.Fatalf("seeked ref = %+v, want %+v", r, want[n/2])
	}
	// Past-the-end seek clamps to EOF.
	if err := ss.SeekTo(2 * n); err != nil {
		t.Fatal(err)
	}
	if _, ok := ss.Next(); ok {
		t.Fatal("Next past the end returned a ref")
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
				if err := ss.SeekTo(i); err != nil {
					errc <- err
					return
				}
				for j := int64(0); j < 10; j++ {
					r, ok := ss.Next()
					if !ok || r != want[i+j] {
						t.Errorf("goroutine %d: ref %d = %+v ok=%v, want %+v", k, i+j, r, ok, want[i+j])
						return
					}
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
