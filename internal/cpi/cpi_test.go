package cpi

import (
	"math"
	"testing"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

func TestComponentsTotal(t *testing.T) {
	c := Components{Instr: 0.1, Data: 0.2, TLB: 0.05, Write: 0.05}
	if c.Total() != 0.4 {
		t.Fatalf("Total = %v", c.Total())
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestEmptySystem(t *testing.T) {
	s := NewSystem()
	if s.Components() != (Components{}) {
		t.Fatal("empty system has non-zero components")
	}
	if s.UserShare() != 0 || s.OSShare() != 0 || s.DomainShare(trace.User) != 0 {
		t.Fatal("empty system has non-zero shares")
	}
}

func TestICacheStalls(t *testing.T) {
	s := NewSystem()
	// Two fetches of the same 4-byte line: one miss (6 cycles), one hit.
	s.Process(trace.Ref{Addr: 0x1000, Kind: trace.IFetch})
	s.Process(trace.Ref{Addr: 0x1000, Kind: trace.IFetch})
	c := s.Components()
	if c.Instr != 3.0 { // 6 cycles over 2 instructions
		t.Fatalf("CPIinstr = %v, want 3.0", c.Instr)
	}
	if c.Data != 0 || c.Write != 0 {
		t.Fatalf("unexpected components: %+v", c)
	}
}

func TestDCacheStalls(t *testing.T) {
	s := NewSystem()
	s.Process(trace.Ref{Addr: 0x1000, Kind: trace.IFetch})
	s.Process(trace.Ref{Addr: 0x2000, Kind: trace.DRead}) // miss: 6 cycles
	s.Process(trace.Ref{Addr: 0x2000, Kind: trace.DRead}) // hit
	c := s.Components()
	if c.Data != 6.0 { // 6 cycles over 1 instruction
		t.Fatalf("CPIdata = %v, want 6", c.Data)
	}
}

func TestStoreInstallsLine(t *testing.T) {
	s := NewSystem()
	s.Process(trace.Ref{Addr: 0x1000, Kind: trace.IFetch})
	s.Process(trace.Ref{Addr: 0x3000, Kind: trace.DWrite}) // full-line write, no stall
	s.Process(trace.Ref{Addr: 0x3000, Kind: trace.DRead})  // must hit now
	c := s.Components()
	if c.Data != 0 {
		t.Fatalf("load after store missed: %+v", c)
	}
}

func TestWriteBufferAbsorbsSparseStores(t *testing.T) {
	s := NewSystem()
	for i := 0; i < 100; i++ {
		for j := 0; j < 20; j++ {
			s.Process(trace.Ref{Addr: uint64(i*80 + j*4), Kind: trace.IFetch})
		}
		s.Process(trace.Ref{Addr: uint64(0x100000 + i*4), Kind: trace.DWrite})
	}
	if c := s.Components(); c.Write != 0 {
		t.Fatalf("sparse stores stalled the write buffer: %+v", c)
	}
}

func TestWriteBufferStallsOnBursts(t *testing.T) {
	s := NewSystem()
	s.Process(trace.Ref{Addr: 0, Kind: trace.IFetch})
	// A burst of back-to-back stores overflows the 4-entry buffer.
	for i := 0; i < 12; i++ {
		s.Process(trace.Ref{Addr: uint64(0x100000 + i*4), Kind: trace.DWrite})
	}
	if c := s.Components(); c.Write == 0 {
		t.Fatal("store burst did not stall")
	}
}

func TestKernelIFetchBypassesTLB(t *testing.T) {
	s := NewSystem()
	// Kernel instruction fetches over many pages: no TLB misses (kseg0).
	for i := 0; i < 200; i++ {
		s.Process(trace.Ref{Addr: 0x80000000 + uint64(i)*4096, Kind: trace.IFetch, Domain: trace.Kernel})
	}
	if c := s.Components(); c.TLB != 0 {
		t.Fatalf("kernel fetches took TLB misses: %+v", c)
	}
	// User fetches over many pages do miss.
	s2 := NewSystem()
	for i := 0; i < 200; i++ {
		s2.Process(trace.Ref{Addr: uint64(i) * 4096, Kind: trace.IFetch, Domain: trace.User})
	}
	if c := s2.Components(); c.TLB == 0 {
		t.Fatal("user fetches took no TLB misses")
	}
}

func TestShares(t *testing.T) {
	s := NewSystem()
	for i := 0; i < 60; i++ {
		s.Process(trace.Ref{Addr: uint64(i) * 4, Kind: trace.IFetch, Domain: trace.User})
	}
	for i := 0; i < 40; i++ {
		s.Process(trace.Ref{Addr: 0x80000000 + uint64(i)*4, Kind: trace.IFetch, Domain: trace.Kernel})
	}
	if s.UserShare() != 0.6 {
		t.Fatalf("UserShare = %v", s.UserShare())
	}
	if s.OSShare() != 0.4 {
		t.Fatalf("OSShare = %v", s.OSShare())
	}
	if s.DomainShare(trace.Kernel) != 0.4 {
		t.Fatalf("DomainShare(Kernel) = %v", s.DomainShare(trace.Kernel))
	}
	if s.Instructions() != 100 {
		t.Fatalf("Instructions = %d", s.Instructions())
	}
}

// Integration: the Table 1 / Table 3 shape — IBS workloads have much higher
// CPIinstr than SPEC; fp suites have much higher CPIdata than int suites.
func TestSuiteShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a few hundred thousand references")
	}
	run := func(name string) Components {
		p, err := synth.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := synth.NewGenerator(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSystem()
		for s.Instructions() < 300000 {
			r := g.Next()
			s.Process(r)
		}
		return s.Components()
	}
	ibs := run("gs")
	spec := run("specint92")
	fp := run("specfp92")
	if ibs.Instr < 2*spec.Instr {
		t.Errorf("IBS CPIinstr (%.3f) not well above SPECint92 (%.3f)", ibs.Instr, spec.Instr)
	}
	if fp.Data < 2*spec.Data {
		t.Errorf("SPECfp CPIdata (%.3f) not well above SPECint (%.3f)", fp.Data, spec.Data)
	}
	if math.IsNaN(ibs.Total()) || ibs.Total() <= 0 {
		t.Errorf("degenerate total: %+v", ibs)
	}
}

// TestProcessDoesNotAllocate: the write buffer is a fixed ring, so an
// instruction followed by a store burst longer than the buffer allocates
// nothing.
func TestProcessDoesNotAllocate(t *testing.T) {
	s := NewSystem()
	var addr uint64
	allocs := testing.AllocsPerRun(100, func() {
		addr += 4
		s.Process(trace.Ref{Addr: addr, Kind: trace.IFetch})
		for i := 0; i < 6; i++ {
			s.Process(trace.Ref{Addr: 0x100000 + addr + uint64(i)*4, Kind: trace.DWrite})
		}
	})
	if allocs != 0 {
		t.Fatalf("Process allocated %.1f times per instruction and store burst", allocs)
	}
}
