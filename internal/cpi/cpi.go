// Package cpi implements the paper's whole-system CPI accounting
// (CPI = CPIinstr + CPIother) on the measurement platform of Tables 1 and 3:
// a DECstation 3100 with split 64-KB direct-mapped off-chip I- and D-caches
// (4-byte lines, 6-cycle miss penalty), a 64-entry fully-associative TLB over
// 4-KB pages, and a 4-entry write buffer behind a write-through D-cache.
//
// The components it reports match the columns of Table 1: CPIinstr (I-cache
// stalls), CPIdata (D-cache load stalls), CPItlb (software TLB-refill traps)
// and CPIwrite (write-buffer-full stalls), each in cycles per instruction.
package cpi

import (
	"fmt"

	"ibsim/internal/cache"
	"ibsim/internal/memsys"
	"ibsim/internal/tlb"
	"ibsim/internal/trace"
)

// Components is a memory-CPI breakdown in the paper's Table 1 columns.
type Components struct {
	Instr float64 // I-cache stalls per instruction
	Data  float64 // D-cache (load) stalls per instruction
	TLB   float64 // TLB-refill stalls per instruction
	Write float64 // write-buffer stalls per instruction
}

// Total returns the total memory CPI (the sum of the components).
func (c Components) Total() float64 { return c.Instr + c.Data + c.TLB + c.Write }

// String renders the breakdown compactly.
func (c Components) String() string {
	return fmt.Sprintf("total=%.3f instr=%.3f data=%.3f tlb=%.3f write=%.3f",
		c.Total(), c.Instr, c.Data, c.TLB, c.Write)
}

// System simulates the DECstation 3100 memory system over a reference
// stream.
type System struct {
	m      memsys.DECstation3100
	icache *cache.Cache
	dcache *cache.Cache
	tlb    *tlb.TLB

	instructions int64
	icStall      int64
	dcStall      int64
	tlbStall     int64
	wbStall      int64

	// Write buffer: a ring of WriteBufferDepth completion times of
	// in-flight writes; wbLen of them, oldest at wbHead.
	wb      []int64
	wbHead  int
	wbLen   int
	lastEnd int64

	// Execution-time split.
	domainInstr [trace.NumDomains]int64
}

// NewSystem builds a DECstation 3100 simulator.
func NewSystem() *System {
	m := memsys.NewDECstation3100()
	return &System{
		m: m,
		icache: cache.MustNew(cache.Config{
			Size: m.CacheSize, LineSize: m.LineSize, Assoc: 1,
		}),
		dcache: cache.MustNew(cache.Config{
			Size: m.CacheSize, LineSize: m.LineSize, Assoc: 1,
		}),
		tlb: tlb.MustNew(tlb.Config{
			Entries: m.TLBEntries, PageSize: m.PageSize, Assoc: 0,
		}),
		wb: make([]int64, m.WriteBufferDepth),
	}
}

// now returns the current cycle: one per instruction plus all stalls.
func (s *System) now() int64 {
	return s.instructions + s.icStall + s.dcStall + s.tlbStall + s.wbStall
}

// Process consumes one reference.
func (s *System) Process(r trace.Ref) {
	switch r.Kind {
	case trace.IFetch:
		s.instructions++
		s.domainInstr[r.Domain]++
		s.lookupTLB(r)
		if !s.icache.Access(r.Addr) {
			s.icStall += int64(s.m.MissPenalty)
		}
	case trace.DRead:
		s.lookupTLB(r)
		if !s.dcache.Access(r.Addr) {
			s.dcStall += int64(s.m.MissPenalty)
		}
	case trace.DWrite:
		s.lookupTLB(r)
		// Write-through, no-allocate-stall: the 4-byte line is fully
		// overwritten, so the store installs the line and retires through
		// the write buffer; the CPU only stalls when the buffer is full.
		s.dcache.Fill(r.Addr)
		s.store()
	}
}

// lookupTLB models address translation. MIPS kernel text executes out of
// unmapped kseg0, so kernel instruction fetches bypass the TLB; everything
// else (user/server fetches and all data references) translates.
func (s *System) lookupTLB(r trace.Ref) {
	if r.Domain == trace.Kernel && r.Kind == trace.IFetch {
		return
	}
	if !s.tlb.Access(r.Addr, r.Domain) {
		s.tlbStall += int64(s.m.TLBPenalty)
	}
}

// store pushes one entry through the write buffer, stalling when it is full.
func (s *System) store() {
	now := s.now()
	// Retire completed writes.
	for s.wbLen > 0 && s.wb[s.wbHead] <= now {
		s.popWrite()
	}
	if s.wbLen == len(s.wb) {
		// Buffer full: stall until the oldest write retires.
		oldest := s.wb[s.wbHead]
		s.wbStall += oldest - now
		now = oldest
		s.popWrite()
	}
	start := now
	if s.lastEnd > start {
		start = s.lastEnd
	}
	s.lastEnd = start + int64(s.m.WriteCycles)
	tail := s.wbHead + s.wbLen
	if tail >= len(s.wb) {
		tail -= len(s.wb)
	}
	s.wb[tail] = s.lastEnd
	s.wbLen++
}

// popWrite retires the oldest buffered write.
func (s *System) popWrite() {
	s.wbHead++
	if s.wbHead == len(s.wb) {
		s.wbHead = 0
	}
	s.wbLen--
}

// Components returns the per-instruction stall breakdown.
func (s *System) Components() Components {
	if s.instructions == 0 {
		return Components{}
	}
	n := float64(s.instructions)
	return Components{
		Instr: float64(s.icStall) / n,
		Data:  float64(s.dcStall) / n,
		TLB:   float64(s.tlbStall) / n,
		Write: float64(s.wbStall) / n,
	}
}

// Instructions returns the instruction count processed.
func (s *System) Instructions() int64 { return s.instructions }

// UserShare returns the fraction of instructions executed in the user task;
// OSShare is the complement (kernel + servers), matching the paper's
// "Execution Time %" columns.
func (s *System) UserShare() float64 {
	if s.instructions == 0 {
		return 0
	}
	return float64(s.domainInstr[trace.User]) / float64(s.instructions)
}

// OSShare returns the fraction of instructions executed in the kernel and
// user-level OS servers.
func (s *System) OSShare() float64 {
	if s.instructions == 0 {
		return 0
	}
	return 1 - s.UserShare()
}

// DomainShare returns the instruction share of one domain.
func (s *System) DomainShare(d trace.Domain) float64 {
	if s.instructions == 0 {
		return 0
	}
	return float64(s.domainInstr[d]) / float64(s.instructions)
}
