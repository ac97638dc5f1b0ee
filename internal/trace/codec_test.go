package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"ibsim/internal/xrand"
)

func roundTrip(t *testing.T, in []Ref) []Ref {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != uint64(len(in)) {
		t.Fatalf("Encode wrote %d, want %d", n, len(in))
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return out
}

func TestCodecRoundTripBasic(t *testing.T) {
	in := []Ref{
		{Addr: 0x1000, Kind: IFetch, Domain: User},
		{Addr: 0x1004, Kind: IFetch, Domain: User},
		{Addr: 0x80001000, Kind: IFetch, Domain: Kernel},
		{Addr: 0x2000, Kind: DRead, Domain: User},
		{Addr: 0x1008, Kind: IFetch, Domain: User},
		{Addr: 0x1f00, Kind: DWrite, Domain: XServer},
		{Addr: 0x0, Kind: IFetch, Domain: User}, // backward jump to 0
	}
	out := roundTrip(t, in)
	if len(out) != len(in) {
		t.Fatalf("got %d refs, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("ref %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestCodecEmpty(t *testing.T) {
	out := roundTrip(t, nil)
	if len(out) != 0 {
		t.Fatalf("empty trace decoded to %d refs", len(out))
	}
}

func TestCodecRandomRoundTrip(t *testing.T) {
	rng := xrand.New(123)
	in := make([]Ref, 10000)
	for i := range in {
		in[i] = Ref{
			Addr:   rng.Uint64() >> rng.Intn(40),
			Kind:   Kind(rng.Intn(3)),
			Domain: Domain(rng.Intn(int(NumDomains))),
		}
	}
	out := roundTrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("ref %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

// Property: arbitrary (bounded) streams round-trip exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8) bool {
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		in := make([]Ref, n)
		for i := 0; i < n; i++ {
			in[i] = Ref{
				Addr:   uint64(addrs[i]),
				Kind:   Kind(kinds[i] % 3),
				Domain: Domain(kinds[i] / 3 % uint8(NumDomains)),
			}
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, in); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecCompression(t *testing.T) {
	// A sequential instruction stream should compress far below 8 bytes/ref.
	in := make([]Ref, 100000)
	for i := range in {
		in[i] = Ref{Addr: 0x400000 + uint64(i)*4, Kind: IFetch, Domain: User}
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	perRef := float64(buf.Len()) / float64(len(in))
	if perRef > 2.5 {
		t.Errorf("sequential stream encodes at %.2f bytes/ref, want ≤ 2.5", perRef)
	}
}

func TestReaderBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE_______")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("IBS")))
	if err == nil {
		t.Fatal("short header accepted")
	}
}

func TestReaderBadVersion(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 0xFF // clobber version
	_, err = NewReader(bytes.NewReader(b))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestReaderCorruptTag(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, refs(0, 4)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[headerSizeForTest()] = 0xFF // first record tag: invalid kind bits
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("corrupt tag yielded a ref")
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
}

func headerSizeForTest() int { return headerSize }

func TestReaderTruncatedBody(t *testing.T) {
	var src seekBuffer
	if _, err := EncodeSeeker(&src, refs(0, 4, 8, 4096, 8192)); err != nil {
		t.Fatal(err)
	}
	b := src.buf[:len(src.buf)-2] // drop tail bytes
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("truncated counted trace decoded without error")
	}
}

func TestWriterRejectsInvalidRef(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(Ref{Kind: Kind(7)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
	// Writer is now poisoned.
	if err := w.Put(Ref{Kind: IFetch}); err == nil {
		t.Fatal("poisoned writer accepted a ref")
	}
	w2, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Put(Ref{Kind: IFetch, Domain: Domain(9)}); err == nil {
		t.Fatal("invalid domain accepted")
	}
}

// seekBuffer is a minimal in-memory io.WriteSeeker.
type seekBuffer struct {
	buf []byte
	pos int
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if need := s.pos + len(p); need > len(s.buf) {
		s.buf = append(s.buf, make([]byte, need-len(s.buf))...)
	}
	copy(s.buf[s.pos:], p)
	s.pos += len(p)
	return len(p), nil
}

func (s *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.pos = int(offset)
	case io.SeekCurrent:
		s.pos += int(offset)
	case io.SeekEnd:
		s.pos = len(s.buf) + int(offset)
	}
	return int64(s.pos), nil
}

func TestEncodeSeekerSelfDescribing(t *testing.T) {
	in := refs(0, 4, 8, 12, 16)
	var sb seekBuffer
	n, err := EncodeSeeker(&sb, in)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("wrote %d", n)
	}
	out, err := Decode(bytes.NewReader(sb.buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("decoded %d", len(out))
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := refs(0x1000, 0x1004, 0x1008, 0x2000, 0x1010)
	if _, err := EncodeSeeker(f, in); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out, err := Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("ref %d mismatch", i)
		}
	}
}

var errTest = errors.New("test error")

// failWriter errors after n bytes, exercising the encode error paths.
type failWriter struct{ remain int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.remain <= 0 {
		return 0, errTest
	}
	n := len(p)
	if n > f.remain {
		n = f.remain
	}
	f.remain -= n
	if n < len(p) {
		return n, errTest
	}
	return n, nil
}

func TestEncodeWriteFailures(t *testing.T) {
	// Header write fails.
	if _, err := NewWriter(&failWriter{remain: 4}); err == nil {
		// Header is buffered; failure may surface at flush instead.
		w, _ := NewWriter(&failWriter{remain: 4})
		if w != nil {
			if err := w.Close(); err == nil {
				t.Fatal("header write failure never surfaced")
			}
		}
	}
	// Body write fails mid-stream: Encode must propagate the error.
	refs := make([]Ref, 100000)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(i) * 4096, Kind: IFetch}
	}
	if _, err := Encode(&failWriter{remain: 64}, refs); err == nil {
		t.Fatal("mid-stream write failure not propagated")
	}
}

type failSeeker struct{ seekBuffer }

func (f *failSeeker) Seek(int64, int) (int64, error) { return 0, errTest }

func TestEncodeSeekerSeekFailure(t *testing.T) {
	if _, err := EncodeSeeker(&failSeeker{}, refs(0, 4)); err == nil {
		t.Fatal("seek failure not propagated")
	}
}

func TestDecodeHeaderError(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("short header accepted by Decode")
	}
}
