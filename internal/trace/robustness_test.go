package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"ibsim/internal/fault"
)

// encodeChecksummed returns a counted, checksummed encoding of refs.
func encodeChecksummed(t testing.TB, in []Ref) []byte {
	t.Helper()
	var sb seekBuffer
	if _, err := EncodeSeeker(&sb, in); err != nil {
		t.Fatal(err)
	}
	return sb.buf
}

func seqRefs(n int) []Ref {
	out := make([]Ref, n)
	for i := range out {
		out[i] = Ref{Addr: 0x400000 + uint64(i)*4, Kind: IFetch, Domain: User}
	}
	return out
}

// Satellite regression: Close is idempotent, and the writer's error state is
// sticky — a second Close and any Put after a failure return the first
// error.
func TestWriterCloseIdempotentSticky(t *testing.T) {
	// Successful lifecycle.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(Ref{Addr: 4, Kind: IFetch}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if err := w.Put(Ref{Addr: 8, Kind: IFetch}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Put after Close = %v, want ErrWriterClosed", err)
	}
	if buf.Len() != headerSize+2 {
		t.Fatalf("Put after Close grew the stream to %d bytes", buf.Len())
	}

	// Failed lifecycle: flush fails, and the failure is sticky.
	fw, err := NewWriter(&failWriter{remain: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Put(Ref{Addr: 4, Kind: IFetch}); err != nil {
		t.Fatalf("buffered Put failed early: %v", err)
	}
	first := fw.Close()
	if first == nil {
		t.Fatal("Close over a failing writer succeeded")
	}
	if again := fw.Close(); again != first {
		t.Fatalf("second Close = %v, want the first error %v", again, first)
	}
	if err := fw.Put(Ref{Addr: 8, Kind: IFetch}); err != first {
		t.Fatalf("Put after failed Close = %v, want the first error %v", err, first)
	}

	// Failed mid-stream write poisons Put and Close alike.
	pw, err := NewWriter(&failWriter{remain: 64})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for _, r := range seqRefs(200000) {
		if firstErr = pw.Put(r); firstErr != nil {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("200k refs never overflowed the 64-byte writer")
	}
	if err := pw.Put(Ref{Addr: 4, Kind: IFetch}); err != firstErr {
		t.Fatalf("Put after failed Put = %v, want %v", err, firstErr)
	}
	if err := pw.Close(); err != firstErr {
		t.Fatalf("Close after failed Put = %v, want %v", err, firstErr)
	}
}

// A checksummed file round-trips, and every single-bit flip in its body or
// trailer is caught with a typed error — no silent wrong result.
func TestChecksumCatchesBitFlips(t *testing.T) {
	in := []Ref{
		{Addr: 0x1000, Kind: IFetch, Domain: User},
		{Addr: 0x1004, Kind: IFetch, Domain: User},
		{Addr: 0x80001000, Kind: DWrite, Domain: Kernel},
		{Addr: 0x1008, Kind: IFetch, Domain: User},
		{Addr: 0x30000f00, Kind: DRead, Domain: BSDServer},
	}
	data := encodeChecksummed(t, in)
	out, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("intact checksummed file failed: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d, want %d", len(out), len(in))
	}
	for off := headerSize; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			got, err := Decode(bytes.NewReader(mut))
			if err == nil {
				// The decoder may only succeed if the result is right.
				if len(got) != len(in) {
					t.Fatalf("flip at %d.%d: silent wrong count", off, bit)
				}
				for i := range in {
					if got[i] != in[i] {
						t.Fatalf("flip at %d.%d: silent wrong result", off, bit)
					}
				}
				continue
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("flip at %d.%d: untyped error %v", off, bit, err)
			}
		}
	}
}

// Truncation of a checksummed file salvages exactly the valid prefix.
func TestDecodeSalvageTruncation(t *testing.T) {
	in := seqRefs(1000)
	data := encodeChecksummed(t, in)
	for _, cut := range []int{headerSize, headerSize + 7, len(data) / 2, len(data) - 6, len(data) - 2} {
		got, complete, err := DecodeSalvage(bytes.NewReader(data[:cut]))
		if complete {
			t.Fatalf("cut at %d reported complete", cut)
		}
		if err == nil {
			t.Fatalf("cut at %d salvaged without error", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: untyped error %v", cut, err)
		}
		if len(got) > len(in) {
			t.Fatalf("cut at %d salvaged %d refs from a %d-ref trace", cut, len(got), len(in))
		}
		for i := range got {
			if got[i] != in[i] {
				t.Fatalf("cut at %d: salvaged ref %d wrong", cut, i)
			}
		}
	}
	// The intact file salvages completely.
	got, complete, err := DecodeSalvage(bytes.NewReader(data))
	if !complete || err != nil || len(got) != len(in) {
		t.Fatalf("intact salvage: complete=%v err=%v n=%d", complete, err, len(got))
	}
}

// An absurd declared count must not translate into a huge allocation.
func TestDecodeAbsurdCountBoundedAllocation(t *testing.T) {
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	hdr[8] = byte(Version)
	for i := 12; i < 20; i++ {
		hdr[i] = 0xff // count ~ 2^64
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	refs, err := Decode(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(refs) != 0 {
		t.Fatalf("decoded %d refs from an empty body", len(refs))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("absurd count allocated %d bytes", grew)
	}
}

// Short reads (flaky transport) must not change decode results.
func TestDecodeUnderShortReads(t *testing.T) {
	in := seqRefs(5000)
	data := encodeChecksummed(t, in)
	r := fault.NewReader(bytes.NewReader(data), fault.Plan{ShortIO: true, Seed: 1234})
	got, err := Decode(r)
	if err != nil {
		t.Fatalf("short-read decode failed: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("ref %d differs under short reads", i)
		}
	}
}

// An injected mid-stream I/O error surfaces (extractable with errors.Is),
// never a panic, never success.
func TestDecodeInjectedIOError(t *testing.T) {
	in := seqRefs(5000)
	data := encodeChecksummed(t, in)
	boom := errors.New("chaos: disk error")
	for _, at := range []int64{3, int64(headerSize), int64(headerSize) + 11, int64(len(data)) / 2} {
		r := fault.NewReader(bytes.NewReader(data), fault.Plan{Err: boom, ErrAfter: at})
		_, err := Decode(r)
		if err == nil {
			t.Fatalf("ErrAfter=%d: decode succeeded across an I/O fault", at)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("ErrAfter=%d: injected error lost: %v", at, err)
		}
	}
}

// A truncated counted stream cut exactly between records is classified
// ErrTruncated; cut mid-record in an uncounted stream, ErrCorrupt.
func TestTruncationClassification(t *testing.T) {
	// Small addresses: every record is exactly 2 bytes (tag + 1-byte delta).
	in := []Ref{{Addr: 4, Kind: IFetch}, {Addr: 8, Kind: IFetch}, {Addr: 12, Kind: IFetch}, {Addr: 16, Kind: IFetch}}
	data := encodeChecksummed(t, in)
	cut := headerSize + 2*2
	_, err := Decode(bytes.NewReader(data[:cut]))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("record-boundary cut: %v, want ErrTruncated", err)
	}

	var buf bytes.Buffer
	if _, err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-1] // uncounted, cut mid-record
	_, err = Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("uncounted mid-record cut: %v, want ErrCorrupt", err)
	}
}

// Unknown header flags are rejected, not misinterpreted.
func TestUnknownFlagsRejected(t *testing.T) {
	data := encodeChecksummed(t, seqRefs(4))
	mut := append([]byte(nil), data...)
	mut[11] = 0x80 // set an undefined flag bit
	_, err := NewReader(bytes.NewReader(mut))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("unknown flags: %v, want ErrBadVersion", err)
	}
}

// A header carrying flag bit 1 — the run-length record format, which
// IBSTRACE/v3 replaced — is refused with the typed version error rather
// than decoded as per-reference records.
func TestRunFlagRejected(t *testing.T) {
	data := encodeChecksummed(t, seqRefs(4))
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(mut[10:12], FlagChecksum|1<<1)
	if _, err := NewReader(bytes.NewReader(mut)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("run-flag header: %v, want ErrBadVersion", err)
	}
	if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Decode of a run-flag file: %v, want ErrBadVersion", err)
	}
}

// The streaming (uncounted, no-trailer) format still round-trips through
// io.Reader pipelines.
func TestStreamingFormatUnchanged(t *testing.T) {
	in := seqRefs(100)
	var buf bytes.Buffer
	n, err := Encode(&buf, in)
	if err != nil || n != 100 {
		t.Fatalf("Encode: n=%d err=%v", n, err)
	}
	got, err := Decode(io.MultiReader(&buf))
	if err != nil || len(got) != 100 {
		t.Fatalf("Decode: n=%d err=%v", len(got), err)
	}
}
