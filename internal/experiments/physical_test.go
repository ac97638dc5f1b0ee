package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/vm"
	"ibsim/internal/xrand"
)

// randomPhysRefs builds an instruction stream over a few virtual pages that
// exercises every case the line-event compiler must get right: runs that
// start near a page end and cross into the next page, tight loops that
// re-enter the line they just left, returns to a line after a detour, and
// the same virtual pages reused from every protection domain.
func randomPhysRefs(rng *xrand.Source, pageSize int) []trace.Ref {
	const base = 0x0040_0000
	var refs []trace.Ref
	emit := func(start uint64, n int, d trace.Domain) {
		for k := 0; k < n; k++ {
			refs = append(refs, trace.Ref{Addr: start + uint64(k)*trace.InstrBytes, Kind: trace.IFetch, Domain: d})
		}
	}
	var prev uint64 = base
	for i := 0; i < 200; i++ {
		d := trace.Domain(rng.Intn(trace.NumDomains))
		page := uint64(rng.Intn(6))
		var start uint64
		n := 1 + rng.Intn(24)
		switch rng.Intn(16) {
		case 0, 5, 6, 7: // near the page end, usually crossing into the next page
			start = base + (page+1)*uint64(pageSize) - uint64(4*(1+rng.Intn(8)))
		case 1: // a long run spanning pages
			start = base + page*uint64(pageSize) + uint64(rng.Intn(pageSize/4))*4
			n = pageSize/4 + rng.Intn(pageSize/2)
		case 2, 3, 4: // a tight loop inside one line, then back to where it was
			loop := prev &^ 15
			for r := 1 + rng.Intn(4); r > 0; r-- {
				emit(loop, 1+rng.Intn(3), d)
			}
			start = prev
		default:
			start = base + page*uint64(pageSize) + uint64(rng.Intn(pageSize/4))*4
		}
		emit(start, n, d)
		prev = start + uint64(n)*trace.InstrBytes
	}
	return refs
}

// TestPhysTraceMatchesPerReference is the kernel's property test: on random
// traces, the line-event replay must leave every cache.Stats field equal to
// the per-reference Translate+Access loop, for every allocation policy, for
// bounded frame pools whose frames alias, for 4-KB and 8-KB pages, for 16-,
// 32- and 64-byte lines, and for direct-mapped through fully associative
// caches.
func TestPhysTraceMatchesPerReference(t *testing.T) {
	policies := []vm.Policy{vm.RandomAlloc, vm.Sequential, vm.PageColoring, vm.BinHopping}
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	cells := 0
	for _, pageSize := range []int{4096, 8192} {
		for seed := uint64(0); seed < seeds; seed++ {
			rng := xrand.New(0x9a6e<<8 ^ seed ^ uint64(pageSize))
			refs := randomPhysRefs(rng, pageSize)
			runs := trace.Compact(refs)
			for _, lineSize := range []int{16, 32, 64} {
				pt, err := compilePhys(trace.NewRunReader(runs), pageSize, lineSize)
				if err != nil {
					t.Fatal(err)
				}
				for _, assoc := range []int{1, 2, 4, 0} {
					size := 32 * 1024
					if assoc == 0 {
						size = 1024 // keep the fully associative way scan short
					}
					for _, pol := range policies {
						for _, frames := range []int{0, 8} {
							cfg := vm.Config{PageSize: pageSize, Frames: frames, Colors: 4, Policy: pol, Seed: seed}
							ccfg := cache.Config{Size: size, LineSize: lineSize, Assoc: assoc}
							mRef, mGot := vm.MustNewMapper(cfg), vm.MustNewMapper(cfg)
							mRef.ResetTrial(seed)
							mGot.ResetTrial(seed)
							want := perRefPhys(refs)(ccfg)(mRef)
							got := pt.cell(ccfg)(mGot)
							if got != want || mGot.Allocated() != mRef.Allocated() {
								t.Fatalf("page %d line %d assoc %d %v frames %d seed %d: line events %+v (%d pages), per-reference %+v (%d pages)",
									pageSize, lineSize, assoc, pol, frames, seed,
									got, mGot.Allocated(), want, mRef.Allocated())
							}
							cells++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells bit-identical", cells)
}

// The compiler must keep one vpn in two domains as two pages, merge
// consecutive fetches from one line into one event, and split a run at every
// line and page boundary.
func TestCompilePhysLayout(t *testing.T) {
	runs := []trace.Run{
		{Start: 0x1ff8, Len: 4, Domain: trace.User},   // 2 fetches in page 1, 2 in page 2
		{Start: 0x2000, Len: 2, Domain: trace.User},   // re-enters the line just left
		{Start: 0x2000, Len: 1, Domain: trace.Kernel}, // same vpn, other domain
	}
	pt, err := compilePhys(trace.NewRunReader(runs), 4096, 32)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := []physPage{{trace.User, 1}, {trace.User, 2}, {trace.Kernel, 2}}
	wantEvents := []lineEvent{{0, 0xfe0, 2}, {1, 0, 4}, {2, 0, 1}}
	if fmt.Sprint(pt.pages) != fmt.Sprint(wantPages) || fmt.Sprint(pt.events) != fmt.Sprint(wantEvents) {
		t.Fatalf("pages %v events %v, want %v %v", pt.pages, pt.events, wantPages, wantEvents)
	}
}

// Figure 5 and the page-policy ablation must produce equal results on the
// line-event kernel and on the per-reference reference path.
func TestPhysicalExhibitsMatchPerConfig(t *testing.T) {
	opt := Options{Instructions: 40_000, Trials: 2}
	ref := opt
	ref.PerConfig = true
	fast, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Figure5(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Points) != len(slow.Points) {
		t.Fatalf("Figure 5: %d points, per-config %d", len(fast.Points), len(slow.Points))
	}
	for i := range fast.Points {
		if fast.Points[i] != slow.Points[i] {
			t.Fatalf("Figure 5 point %d: %+v, per-config %+v", i, fast.Points[i], slow.Points[i])
		}
	}
	pf, err := AblationPagePolicy(opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := AblationPagePolicy(ref)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pf) != fmt.Sprint(ps) {
		t.Fatalf("page policy: %+v, per-config %+v", pf, ps)
	}
}

// A deadline that fires while a workload is mid-simulation must stop Figure
// 5 at the next cell, on both paths, not after the workload's remaining
// cells.
func TestFigure5DeadlineStopsBetweenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("times full Figure 5 runs")
	}
	const n = 200_000
	// Pin the traces so every run below starts simulating at once.
	for _, name := range figure5Workloads() {
		p, err := synth.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		_, release, err := synth.DefaultStore.RunsOnly(context.Background(), p, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	// More trials on the fast path keep one cell small against the run, so
	// scheduling jitter stays far below the margin.
	for _, opt := range []Options{
		{Instructions: n, Trials: 10, Workers: 1},
		{Instructions: n, Trials: 2, Workers: 1, PerConfig: true},
	} {
		start := time.Now()
		if _, err := Figure5(opt); err != nil {
			t.Fatal(err)
		}
		full := time.Since(start)
		// One worker runs the four workloads back to back, so one workload
		// takes about full/4.
		ctx, cancel := context.WithTimeout(context.Background(), full/40)
		opt.Context = ctx
		start = time.Now()
		_, err := Figure5(opt)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("per-config %v: err = %v, want context.DeadlineExceeded", opt.PerConfig, err)
		}
		t.Logf("per-config %v: full run %v, %v deadline returned after %v", opt.PerConfig, full, full/40, took)
		if took > full/8 {
			t.Fatalf("per-config %v: returned after %v with a %v deadline; one workload takes about %v",
				opt.PerConfig, took, full/40, full/4)
		}
	}
}

var physSink cache.Stats

// benchPhys times Figure 5 cells over verilog's trace: an 8-KB cache behind a
// fresh random mapping, of each associativity in assocs.
func benchPhys(b *testing.B, lineEvents bool, assocs ...int) {
	p, err := synth.Lookup("verilog")
	if err != nil {
		b.Fatal(err)
	}
	const n = 500_000
	runs, release, err := synth.DefaultStore.RunsOnly(context.Background(), p, 0, n)
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	sim := perRefPhys(trace.Expand(runs))
	if lineEvents {
		pt, err := compilePhys(trace.NewRunReader(runs), physPageSize, 32)
		if err != nil {
			b.Fatal(err)
		}
		sim = pt.cell
	}
	for _, a := range assocs {
		b.Run(fmt.Sprintf("%d-way", a), func(b *testing.B) {
			run := sim(cache.Config{Size: 8192, LineSize: 32, Assoc: a})
			for i := 0; i < b.N; i++ {
				m := vm.MustNewMapper(vm.Config{PageSize: physPageSize, Policy: vm.RandomAlloc, Seed: p.Seed})
				m.ResetTrial(uint64(i))
				physSink = run(m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/instr")
		})
	}
}

func BenchmarkPhysicalPerRef(b *testing.B)     { benchPhys(b, false, 1) }
func BenchmarkPhysicalLineEvents(b *testing.B) { benchPhys(b, true, 1, 2, 4) }
