// Package trace defines the memory-reference stream model used throughout
// ibsim, plus a compact binary on-disk format for distributing traces.
//
// The paper's traces were captured with the Monster logic analyzer on a
// DECstation 3100: complete address streams, including every user task, the
// kernel, and (under Mach) the user-level BSD and X servers. A reference
// therefore carries not just an address and an access kind but also the
// protection/address-space domain it executed in, so that simulators can
// attribute misses and execution time the way Tables 3 and 4 do.
package trace

import "fmt"

// Kind discriminates reference types.
type Kind uint8

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// DRead is a data load.
	DRead
	// DWrite is a data store.
	DWrite
)

// String returns the conventional short name for the kind.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case DRead:
		return "dread"
	case DWrite:
		return "dwrite"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Domain identifies the address-space/protection domain a reference executed
// in. The set matches the workload components of Table 4: the user
// application task(s), the OS kernel, and — under a microkernel OS — the
// user-level BSD and X display servers. Each domain is a separate virtual
// address space (a separate ASID) for cache-indexing purposes.
type Domain uint8

const (
	// User is the application task itself.
	User Domain = iota
	// Kernel is the operating-system kernel.
	Kernel
	// BSDServer is Mach's user-level 4.3 BSD UNIX server.
	BSDServer
	// XServer is the X11 display server.
	XServer
	// NumDomains is the number of defined domains.
	NumDomains = 4
)

// String returns the component name used in the paper's tables.
func (d Domain) String() string {
	switch d {
	case User:
		return "User"
	case Kernel:
		return "Kernel"
	case BSDServer:
		return "BSD"
	case XServer:
		return "X"
	default:
		return fmt.Sprintf("Domain(%d)", uint8(d))
	}
}

// Ref is a single memory reference.
type Ref struct {
	// Addr is the virtual byte address referenced.
	Addr uint64
	// Kind says whether this is an instruction fetch, load, or store.
	Kind Kind
	// Domain is the address space the reference executed in.
	Domain Domain
}

// Counts tallies a reference stream by kind and domain.
type Counts struct {
	// ByKind[k] is the number of references of Kind k.
	ByKind [3]int64
	// ByDomain[d] is the number of references executed in Domain d.
	ByDomain [NumDomains]int64
	// Total is the overall reference count.
	Total int64
}

// Observe records r.
func (c *Counts) Observe(r Ref) {
	c.Total++
	if int(r.Kind) < len(c.ByKind) {
		c.ByKind[r.Kind]++
	}
	if int(r.Domain) < len(c.ByDomain) {
		c.ByDomain[r.Domain]++
	}
}

// ObserveRun records the r.Len instruction fetches of r.
func (c *Counts) ObserveRun(r Run) {
	c.Total += r.Len
	c.ByKind[IFetch] += r.Len
	if int(r.Domain) < len(c.ByDomain) {
		c.ByDomain[r.Domain] += r.Len
	}
}

// Instructions returns the number of instruction fetches observed.
func (c *Counts) Instructions() int64 { return c.ByKind[IFetch] }

// DomainFraction returns the fraction of all references executed in d, or 0
// for an empty stream.
func (c *Counts) DomainFraction(d Domain) float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.ByDomain[d]) / float64(c.Total)
}
