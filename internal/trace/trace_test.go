package trace

import (
	"testing"
)

func refs(addrs ...uint64) []Ref {
	out := make([]Ref, len(addrs))
	for i, a := range addrs {
		out[i] = Ref{Addr: a, Kind: IFetch, Domain: User}
	}
	return out
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{IFetch: "ifetch", DRead: "dread", DWrite: "dwrite", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestDomainString(t *testing.T) {
	for d, want := range map[Domain]string{User: "User", Kernel: "Kernel", BSDServer: "BSD", XServer: "X", Domain(8): "Domain(8)"} {
		if got := d.String(); got != want {
			t.Errorf("Domain.String() = %q, want %q", got, want)
		}
	}
}

func TestCounts(t *testing.T) {
	in := []Ref{
		{Kind: IFetch, Domain: User},
		{Kind: IFetch, Domain: Kernel},
		{Kind: DRead, Domain: User},
		{Kind: DWrite, Domain: XServer},
		{Kind: IFetch, Domain: User},
	}
	var c Counts
	for _, r := range in {
		c.Observe(r)
	}
	if c.Total != 5 {
		t.Errorf("Total = %d", c.Total)
	}
	if c.Instructions() != 3 {
		t.Errorf("Instructions = %d", c.Instructions())
	}
	if c.ByKind[DRead] != 1 || c.ByKind[DWrite] != 1 {
		t.Errorf("data counts wrong: %v", c.ByKind)
	}
	if c.ByDomain[User] != 3 || c.ByDomain[Kernel] != 1 || c.ByDomain[XServer] != 1 {
		t.Errorf("domain counts wrong: %v", c.ByDomain)
	}
	if got := c.DomainFraction(User); got != 0.6 {
		t.Errorf("DomainFraction(User) = %v", got)
	}
	var empty Counts
	if empty.DomainFraction(User) != 0 {
		t.Error("empty DomainFraction != 0")
	}
}
