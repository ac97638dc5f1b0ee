package check

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ibsim/internal/replay"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// The columnar differentials must hold at a sub-golden scale that still
// spans many blocks.
func TestColumnarReplayPasses(t *testing.T) {
	results, err := ColumnarReplay(Options{Instructions: 60_000})
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	want := []string{"differential/columnar-replay", "differential/blocks-parallel", "differential/columnar-sweep"}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Name != want[i] {
			t.Errorf("result %d = %q, want %q", i, r.Name, want[i])
		}
		if !r.Passed {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		}
	}
}

// The chaos salvage scenario in isolation (it also runs inside RunChaos).
func TestChaosColumnarSalvage(t *testing.T) {
	opt := Options{Instructions: 50_000}.withDefaults()
	refs, err := synth.InstrTrace(opt.Workloads[0], opt.Seed, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	r := chaosColumnarSalvage(refs)
	if !r.Passed {
		t.Fatalf("%s: %s", r.Name, r.Detail)
	}
	if !strings.Contains(r.Detail, "prefix") {
		t.Fatalf("detail does not describe the truncation salvage: %s", r.Detail)
	}
}

// The columnar tier's contract: a store capped at a tenth of a trace's
// expanded size rejects its runs, directly and through the InstrCtx
// adapter, but admits the columnar file;
// replaying that file block by block is bit-identical to the in-memory
// replay; and heap growth during the disk replay stays under the budget the
// trace exceeds tenfold.
func TestColumnarTierContract(t *testing.T) {
	const n = 120_000
	opt := Options{Instructions: n}.withDefaults()
	p := opt.Workloads[0]
	ctx := context.Background()
	budget := int64(n * 16 / 10) // a tenth of the 16-byte refs; the runs take about 3 bytes each
	capped := synth.NewStoreLimits(0, budget)
	defer capped.Purge()
	if _, release, err := capped.InstrCtx(ctx, p, opt.Seed, n); !errors.Is(err, synth.ErrOverBudget) {
		if err == nil {
			release()
		}
		t.Fatalf("capped store admitted the refs: %v", err)
	}
	if _, release, err := capped.RunsOnly(ctx, p, opt.Seed, n); !errors.Is(err, synth.ErrOverBudget) {
		if err == nil {
			release()
		}
		t.Fatalf("capped store admitted the runs: %v", err)
	}
	cf, release, err := capped.Columnar(ctx, p, opt.Seed, n)
	if err != nil {
		t.Fatalf("columnar tier under budget %d: %v", budget, err)
	}
	defer release()
	if cf.Size() > budget {
		t.Fatalf("spilled file %d bytes exceeds budget %d", cf.Size(), budget)
	}

	// Re-block the trace so the block loop and the heap probe run dozens of
	// times.
	refs, err := synth.InstrTrace(p, opt.Seed, n)
	if err != nil {
		t.Fatal(err)
	}
	runs := trace.Compact(refs)
	path := filepath.Join(t.TempDir(), "tier.ibsc")
	var buf bytes.Buffer
	if _, err := trace.EncodeColumnarSize(&buf, runs, 2048); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, buf = nil, bytes.Buffer{}
	bf, err := trace.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	if bf.NumBlocks() < 8 {
		t.Fatalf("file spans only %d blocks", bf.NumBlocks())
	}

	memBank, err := columnarBank()
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay.Replay(ctx, runs, memBank)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := columnarBank()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	probe := &memProbe{BlockSource: bf, peak: ms.HeapInuse}
	got, err := replay.BlocksParallel(ctx, probe, bank, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("block replay %+v != in-memory %+v", got, want)
	}
	if growth := int64(probe.peak - ms.HeapInuse); growth >= budget {
		t.Fatalf("heap grew %d bytes replaying from disk, budget %d", growth, budget)
	}
}

// memProbe wraps a BlockSource, sampling HeapInuse before every block read
// to catch the replay's peak residency.
type memProbe struct {
	trace.BlockSource
	peak uint64
}

func (p *memProbe) BlockRuns(i int, dst []trace.Run) ([]trace.Run, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.peak = max(p.peak, ms.HeapInuse)
	return p.BlockSource.BlockRuns(i, dst)
}
