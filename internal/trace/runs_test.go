package trace

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"ibsim/internal/xrand"
)

// randomInstrTrace builds an instruction-heavy trace with sequential runs
// broken by jumps and domain switches — the structure Compact exploits.
func randomInstrTrace(rng *xrand.Source, n int) []Ref {
	refs := make([]Ref, 0, n)
	addr := uint64(0x10000)
	dom := User
	for len(refs) < n {
		if rng.Bool(0.1) {
			addr = rng.Uint64() >> rng.Intn(40) &^ 3
		}
		if rng.Bool(0.02) {
			dom = Domain(rng.Intn(int(NumDomains)))
		}
		if rng.Bool(0.05) {
			refs = append(refs, Ref{Addr: rng.Uint64(), Kind: Kind(1 + rng.Intn(2)), Domain: dom})
			continue
		}
		refs = append(refs, Ref{Addr: addr, Kind: IFetch, Domain: dom})
		addr += InstrBytes
	}
	return refs
}

func instrOnly(refs []Ref) []Ref {
	out := make([]Ref, 0, len(refs))
	for _, r := range refs {
		if r.Kind == IFetch {
			out = append(out, r)
		}
	}
	return out
}

func TestCompactBasic(t *testing.T) {
	refs := []Ref{
		{Addr: 0x1000, Kind: IFetch, Domain: User},
		{Addr: 0x1004, Kind: IFetch, Domain: User},
		{Addr: 0x1008, Kind: IFetch, Domain: User},
		{Addr: 0x2000, Kind: DRead, Domain: User}, // ignored
		{Addr: 0x100c, Kind: IFetch, Domain: User},
		{Addr: 0x4000, Kind: IFetch, Domain: User},   // jump
		{Addr: 0x4004, Kind: IFetch, Domain: Kernel}, // domain switch
	}
	runs := Compact(refs)
	want := []Run{
		{Start: 0x1000, Len: 4, Domain: User},
		{Start: 0x4000, Len: 1, Domain: User},
		{Start: 0x4004, Len: 1, Domain: Kernel},
	}
	if len(runs) != len(want) {
		t.Fatalf("got %d runs %v, want %d", len(runs), runs, len(want))
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d: got %+v, want %+v", i, runs[i], want[i])
		}
	}
}

// A run never wraps the address space: the last instructions below 2^64 end
// the run so Start+Len*InstrBytes stays representable.
func TestCompactAddressSpaceWrap(t *testing.T) {
	top := ^uint64(0) - 2*InstrBytes + 1
	refs := []Ref{
		{Addr: top, Kind: IFetch},
		{Addr: top + InstrBytes, Kind: IFetch},
		{Addr: 0, Kind: IFetch}, // wrapped: must start a fresh run
		{Addr: InstrBytes, Kind: IFetch},
	}
	runs := Compact(refs)
	for _, r := range runs {
		if r.End() <= r.Start && r.End() != 0 { // End()==0 marks a run ending exactly at the top
			t.Fatalf("run %+v wraps the address space", r)
		}
		if last := r.Start + uint64(r.Len-1)*InstrBytes; last < r.Start {
			t.Fatalf("run %+v has wrapping instructions", r)
		}
	}
	if got := Expand(runs); len(got) != len(refs) {
		t.Fatalf("expand lost refs: %d vs %d", len(got), len(refs))
	}
}

// Property: Expand(Compact(refs)) is exactly the instruction subsequence.
func TestCompactExpandRoundTrip(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		refs := randomInstrTrace(rng, 2000)
		runs := Compact(refs)
		got := Expand(runs)
		want := instrOnly(refs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d refs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d ref %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
		// Runs must be maximal: consecutive runs never merge.
		for i := 1; i < len(runs); i++ {
			if runs[i].Start == runs[i-1].End() && runs[i].Domain == runs[i-1].Domain && runs[i-1].End() != 0 {
				t.Fatalf("trial %d: runs %d,%d not maximal: %+v %+v", trial, i-1, i, runs[i-1], runs[i])
			}
		}
	}
}

func TestSummarizeRuns(t *testing.T) {
	runs := []Run{
		{Start: 0, Len: 1},
		{Start: 0x100, Len: 3},
		{Start: 0x200, Len: 8},
		{Start: 0x300, Len: 4},
	}
	st := SummarizeRuns(runs)
	if st.Instructions != 16 || st.Runs != 4 || st.MaxLen != 8 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanLen != 4 {
		t.Errorf("MeanLen = %v, want 4", st.MeanLen)
	}
	if st.MedianLen != 3.5 { // sorted lens 1,3,4,8 -> (3+4)/2
		t.Errorf("MedianLen = %v, want 3.5", st.MedianLen)
	}
	if st.CompactionRatio() != 4 {
		t.Errorf("CompactionRatio = %v, want 4", st.CompactionRatio())
	}
	if z := SummarizeRuns(nil); z.CompactionRatio() != 0 || z.Runs != 0 {
		t.Errorf("empty stats: %+v", z)
	}
	// Repeated lengths, odd and even run counts: the median of the sorted
	// lengths.
	rng := xrand.New(44)
	for n := 1; n <= 40; n++ {
		runs := make([]Run, n)
		lens := make([]int64, n)
		for i := range runs {
			runs[i].Len = 1 + int64(rng.Intn(6))
			lens[i] = runs[i].Len
		}
		slices.Sort(lens)
		want := float64(lens[n/2])
		if n%2 == 0 {
			want = float64(lens[n/2-1]+lens[n/2]) / 2
		}
		if got := SummarizeRuns(runs).MedianLen; got != want {
			t.Fatalf("%d runs %v: MedianLen = %v, want %v", n, lens, got, want)
		}
	}
}

// CompactAppend with a pre-sized destination must not allocate: it is the
// sweep/replay hot path.
func TestCompactAppendZeroAlloc(t *testing.T) {
	rng := xrand.New(99)
	refs := randomInstrTrace(rng, 10000)
	dst := make([]Run, 0, len(refs))
	allocs := testing.AllocsPerRun(10, func() {
		dst = CompactAppend(dst[:0], refs)
	})
	if allocs != 0 {
		t.Fatalf("CompactAppend allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkCompactAppend(b *testing.B) {
	rng := xrand.New(1)
	refs := randomInstrTrace(rng, 1<<20)
	dst := make([]Run, 0, len(refs))
	b.SetBytes(int64(len(refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = CompactAppend(dst[:0], refs)
	}
}

// Reader.EachRun streams exactly Compact's runs: random traces with data
// references, jumps and domain switches, and runs at the top of the
// address space, each encoded and decoded. Cut short mid-record, a stream
// still yields the runs of exactly the references DecodeSalvage salvages.
func TestEachRunMatchesCompact(t *testing.T) {
	rng := xrand.New(43)
	top := ^uint64(0) - 2*InstrBytes + 1
	traces := [][]Ref{
		{{Addr: top, Kind: IFetch}, {Addr: top + InstrBytes, Kind: IFetch}, {Addr: 0, Kind: IFetch}, {Addr: InstrBytes, Kind: IFetch}},
		{{Addr: 0x40, Kind: DRead}},
	}
	for trial := 0; trial < 10; trial++ {
		traces = append(traces, randomInstrTrace(rng, 2000))
	}
	for i, refs := range traces {
		var buf bytes.Buffer
		if _, err := Encode(&buf, refs); err != nil {
			t.Fatal(err)
		}
		encoded := bytes.Clone(buf.Bytes())
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got []Run
		if err := r.EachRun(func(run Run) error { got = append(got, run); return nil }); err != nil {
			t.Fatal(err)
		}
		if want := Compact(refs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d: EachRun %v, Compact %v", i, got, want)
		}

		cut := encoded[:len(encoded)-1]
		salvaged, _, _ := DecodeSalvage(bytes.NewReader(cut))
		if r, err = NewReader(bytes.NewReader(cut)); err != nil {
			t.Fatal(err)
		}
		got = nil
		if err := r.EachRun(func(run Run) error { got = append(got, run); return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trace %d cut short: EachRun returned %v, want ErrCorrupt", i, err)
		}
		if want := Compact(salvaged); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d cut short: EachRun %v, Compact of the salvaged prefix %v", i, got, want)
		}
	}
}
