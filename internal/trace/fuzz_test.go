package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// encodeValid returns the encoded bytes of refs via the counted
// (self-describing) path.
func encodeValid(t testing.TB, refs []Ref) []byte {
	t.Helper()
	var buf seekBuffer // shared with codec_test.go
	if _, err := EncodeSeeker(&buf, refs); err != nil {
		t.Fatal(err)
	}
	return buf.buf
}

// corpusRefs is the reference stream the corrupt-stream corpus mutates.
var corpusRefs = []Ref{
	{Addr: 0x400000, Kind: IFetch, Domain: User},
	{Addr: 0x400004, Kind: IFetch, Domain: User},
	{Addr: 0x80001000, Kind: DWrite, Domain: Kernel},
	{Addr: 0x30000f00, Kind: DRead, Domain: BSDServer},
	{Addr: 0x400008, Kind: IFetch, Domain: User},
}

// FuzzDecode feeds arbitrary record bodies behind a well-formed header and
// asserts the decoder's error contract: Decode either succeeds (delivering
// exactly the declared record count, when one is declared) or returns a
// typed ErrCorrupt/ErrTruncated — and never panics.
func FuzzDecode(f *testing.F) {
	valid := encodeValid(f, corpusRefs)
	body := valid[headerSize:]

	// Seed corpus: the well-formed body plus the corruption classes the
	// decoder must classify.
	f.Add(uint64(len(corpusRefs)), body)                                      // intact
	f.Add(uint64(len(corpusRefs)), body[:len(body)-1])                        // truncated mid-varint
	f.Add(uint64(len(corpusRefs)+3), body)                                    // count overstates records
	f.Add(uint64(len(corpusRefs)), append([]byte{0x7f}, body...))             // invalid tag (0x60 bits set)
	f.Add(uint64(1), []byte{0x00})                                            // tag with missing delta
	f.Add(uint64(1), append([]byte{0x00}, bytes.Repeat([]byte{0x80}, 11)...)) // varint overflow
	f.Add(uint64(0), body)                                                    // count-less stream
	f.Add(uint64(0), []byte{})                                                // empty body
	f.Add(uint64(1)<<62, body)                                                // absurd count: must not pre-allocate
	f.Add(^uint64(0), []byte{})                                               // absurd count, empty body

	f.Fuzz(func(t *testing.T, count uint64, recs []byte) {
		data := make([]byte, headerSize+len(recs))
		copy(data, Magic)
		binary.LittleEndian.PutUint16(data[8:10], Version)
		binary.LittleEndian.PutUint64(data[12:20], count)
		copy(data[headerSize:], recs)

		refs, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("decode error is not typed ErrCorrupt/ErrTruncated: %v", err)
			}
			return
		}
		if count > 0 && uint64(len(refs)) != count {
			t.Fatalf("decode succeeded with %d records, header declared %d", len(refs), count)
		}
	})
}

// FuzzHeader fuzzes the fixed header: NewReader must accept exactly
// well-formed headers and classify everything else with a typed error.
func FuzzHeader(f *testing.F) {
	valid := encodeValid(f, corpusRefs)
	f.Add(valid[:headerSize])
	f.Add([]byte("IBSTRACE"))                                                 // short header
	f.Add([]byte("IBSTRACF\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")) // bad magic
	f.Add([]byte{})
	bad := append([]byte{}, valid[:headerSize]...)
	bad[8] = 0xff // absurd version
	f.Add(bad)

	f.Fuzz(func(t *testing.T, hdr []byte) {
		r, err := NewReader(bytes.NewReader(hdr))
		if err != nil {
			return // rejected header: fine, and must not panic
		}
		// Accepted: the header must really have been well-formed.
		if len(hdr) < headerSize || string(hdr[:8]) != Magic ||
			binary.LittleEndian.Uint16(hdr[8:10]) != Version {
			t.Fatalf("NewReader accepted malformed header % x", hdr)
		}
		_, _ = r.Next()
		_ = r.Err()
	})
}

// FuzzReader ensures arbitrary byte streams never panic the decoder and that
// declared-count traces either decode fully or error.
func FuzzReader(f *testing.F) {
	// Seed with a valid trace.
	var buf bytes.Buffer
	refs := []Ref{
		{Addr: 0x1000, Kind: IFetch, Domain: User},
		{Addr: 0x1004, Kind: IFetch, Domain: User},
		{Addr: 0x80001000, Kind: DWrite, Domain: Kernel},
	}
	if _, err := Encode(&buf, refs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("IBSTRACE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		n := 0
		for {
			_, ok := r.Next()
			if !ok {
				break
			}
			n++
			if n > 1<<20 {
				t.Fatal("decoder produced >1M refs from fuzz input")
			}
		}
		// Err may or may not be set; it must not panic and must be stable.
		_ = r.Err()
	})
}

// FuzzSalvage feeds arbitrary bytes to DecodeSalvage and asserts the salvage
// contract: no panic; a complete result has no error; an incomplete result
// carries a typed error; and the salvaged prefix of a counted stream never
// exceeds the declared count.
func FuzzSalvage(f *testing.F) {
	valid := encodeValid(f, corpusRefs)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:headerSize+2])
	f.Add([]byte("IBSTRACE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		refs, complete, err := DecodeSalvage(bytes.NewReader(data))
		if complete && err != nil {
			t.Fatalf("complete salvage returned error %v", err)
		}
		if !complete && err == nil && len(data) >= headerSize {
			t.Fatal("incomplete salvage without error")
		}
		if len(data) >= headerSize && string(data[:8]) == string(Magic) {
			if count := binary.LittleEndian.Uint64(data[12:20]); count > 0 && uint64(len(refs)) > count {
				t.Fatalf("salvaged %d refs, header declared %d", len(refs), count)
			}
		}
	})
}

// FuzzRoundTrip checks that any encodable ref sequence survives a round
// trip.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint8(0), uint8(0), uint64(0x2000), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, a1 uint64, k1, d1 uint8, a2 uint64, k2, d2 uint8) {
		in := []Ref{
			{Addr: a1, Kind: Kind(k1 % 3), Domain: Domain(d1 % uint8(NumDomains))},
			{Addr: a2, Kind: Kind(k2 % 3), Domain: Domain(d2 % uint8(NumDomains))},
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, in); err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
			t.Fatalf("round trip mismatch: %v vs %v", out, in)
		}
	})
}
