package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary trace format.
//
// The paper closes by making the IBS traces "available to the research
// community"; this codec is our equivalent artifact. The format favors
// compactness (instruction streams are strongly sequential, so delta
// encoding pays off) while staying trivially portable: everything after the
// fixed header is a stream of varint-encoded records.
//
//	header:  magic "IBSTRACE" | version u16 | flags u16 | count u64
//	record:  tag byte | uvarint delta
//	trailer: crc32 u32 (only when flags has FlagChecksum)
//
// The tag byte packs kind (2 bits), domain (2 bits), and the sign of the
// address delta (1 bit); the delta is relative to the previous reference of
// the *same kind and domain*, which keeps instruction-fetch deltas tiny even
// when data references interleave.
//
// Self-describing files (EncodeSeeker / ibsgen) additionally carry a CRC-32
// of the record bytes as a 4-byte little-endian trailer, announced by
// FlagChecksum. Truncation is caught by the declared count; the checksum
// catches the damage a count cannot — bit flips and mid-file corruption that
// leave the stream structurally decodable but semantically wrong. The error
// contract is: a damaged file yields ErrCorrupt or ErrTruncated (or
// ErrBadMagic/ErrBadVersion for header damage), never a panic and never a
// silently wrong result.

// Magic identifies ibsim trace files.
const Magic = "IBSTRACE"

// Version is the current trace format version.
const Version uint16 = 1

// FlagChecksum marks a file whose records are followed by a 4-byte CRC-32
// trailer. Only meaningful with a non-zero declared count (the count tells
// the reader where the records end).
const FlagChecksum uint16 = 1 << 0

var (
	// ErrBadMagic reports a file that is not an ibsim trace.
	ErrBadMagic = errors.New("trace: bad magic (not an IBSTRACE file)")
	// ErrBadVersion reports an unsupported trace format version or flag.
	ErrBadVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt reports a structurally or semantically invalid trace body.
	ErrCorrupt = errors.New("trace: corrupt record stream")
	// ErrTruncated reports a stream that ended before the declared count.
	ErrTruncated = errors.New("trace: truncated (fewer records than header count)")
	// ErrWriterClosed reports a Put on a successfully closed Writer.
	ErrWriterClosed = errors.New("trace: writer is closed")
)

const headerSize = 8 + 2 + 2 + 8

// maxPrealloc bounds the slice capacity Decode trusts a header's declared
// count for: an absurd count in a damaged or hostile file must not translate
// into a gigantic up-front allocation.
const maxPrealloc = 1 << 20

// Writer encodes references to an underlying io.Writer. Close must be called
// to flush buffered data. The header's record count is written as zero (a
// streaming file); Finish patches it, and appends the checksum trailer, when
// the destination can seek.
//
// The Writer's error handling is sticky: after any failure (an invalid
// reference, an underlying write error, a failed flush) every subsequent Put
// and Close returns that first error, so a caller's final Close verdict is
// trustworthy. Close is idempotent.
type Writer struct {
	w      *bufio.Writer
	last   [3][NumDomains]uint64 // previous address per (kind, domain)
	count  uint64
	sum    uint32 // CRC-32 (IEEE) of the record bytes written so far
	buf    [binary.MaxVarintLen64 + 1]byte
	err    error
	closed bool
}

// NewWriter writes the trace header (with a zero record count — use Finish
// for a self-describing file, or pair with a transport that delimits the
// stream) and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint16(hdr[8:10], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Put appends one reference.
func (w *Writer) Put(r Ref) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrWriterClosed
	}
	if r.Kind > DWrite {
		w.err = fmt.Errorf("trace: invalid kind %d", r.Kind)
		return w.err
	}
	if r.Domain >= NumDomains {
		w.err = fmt.Errorf("trace: invalid domain %d", r.Domain)
		return w.err
	}
	prev := w.last[r.Kind][r.Domain]
	w.last[r.Kind][r.Domain] = r.Addr

	var delta uint64
	tag := byte(r.Kind)<<3 | byte(r.Domain)<<1
	if r.Addr >= prev {
		delta = r.Addr - prev
	} else {
		delta = prev - r.Addr
		tag |= 1 // sign bit: delta is negative
	}
	w.buf[0] = tag
	n := binary.PutUvarint(w.buf[1:], delta)
	if _, err := w.w.Write(w.buf[:1+n]); err != nil {
		w.err = err
		return err
	}
	w.sum = crc32.Update(w.sum, crc32.IEEETable, w.buf[:1+n])
	w.count++
	return nil
}

// Count returns the number of references written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes buffered data. It does not close the underlying writer.
// Close is idempotent and sticky: a repeated Close (and any Close after a
// failed write) returns the first error; a Put after a successful Close
// returns ErrWriterClosed without corrupting the stream.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		if err := w.w.Flush(); err != nil {
			w.err = err
		}
	}
	return w.err
}

// Reader decodes a trace stream written by Writer, one reference per Next.
type Reader struct {
	r      *bufio.Reader
	last   [3][NumDomains]uint64
	remain uint64
	sum    uint32 // running CRC-32 of consumed record bytes
	buf    [binary.MaxVarintLen64 + 1]byte
	// counted reports whether the header declared a record count (> 0); if
	// so the reader enforces it.
	counted bool
	// checksum reports whether a CRC-32 trailer follows the records.
	checksum bool
	// verified reports that the trailer has been read and checked.
	verified bool
	err      error
}

// NewReader validates the header of r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[10:12])
	if flags&^FlagChecksum != 0 {
		return nil, fmt.Errorf("%w: unknown flags 0x%04x", ErrBadVersion, flags)
	}
	count := binary.LittleEndian.Uint64(hdr[12:20])
	return &Reader{
		r:        br,
		remain:   count,
		counted:  count > 0,
		checksum: flags&FlagChecksum != 0 && count > 0,
	}, nil
}

// Next returns the next reference and true, or a zero Ref and false at the
// end of the stream or on error; Err tells the two apart.
func (r *Reader) Next() (Ref, bool) {
	if r.err != nil {
		return Ref{}, false
	}
	if r.counted && r.remain == 0 {
		r.verify()
		return Ref{}, false
	}
	tag, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			if r.counted && r.remain > 0 {
				r.err = fmt.Errorf("%w: %d records missing", ErrTruncated, r.remain)
			}
		} else {
			r.err = err
		}
		return Ref{}, false
	}
	kind := Kind(tag >> 3)
	domain := Domain(tag >> 1 & 0x3)
	if kind > DWrite || tag&0x60 != 0 {
		r.err = fmt.Errorf("%w: invalid tag 0x%02x", ErrCorrupt, tag)
		return Ref{}, false
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// A record cut mid-delta: classify by whether the header promised
			// more (damage to a counted file) or the stream just stopped.
			if r.counted {
				r.err = fmt.Errorf("%w: record cut mid-delta, %d records missing", ErrTruncated, r.remain)
			} else {
				r.err = fmt.Errorf("%w: record cut mid-delta", ErrCorrupt)
			}
		} else {
			// Varint overflow or an underlying I/O failure; keep the cause
			// extractable (errors.Is/As) alongside the typed classification.
			r.err = fmt.Errorf("%w: reading delta: %w", ErrCorrupt, err)
		}
		return Ref{}, false
	}
	if r.checksum {
		r.buf[0] = tag
		n := binary.PutUvarint(r.buf[1:], delta)
		r.sum = crc32.Update(r.sum, crc32.IEEETable, r.buf[:1+n])
	}
	prev := r.last[kind][domain]
	var addr uint64
	if tag&1 == 0 {
		addr = prev + delta
	} else {
		addr = prev - delta
	}
	r.last[kind][domain] = addr
	if r.counted {
		r.remain--
	}
	return Ref{Addr: addr, Kind: kind, Domain: domain}, true
}

// verify reads and checks the CRC-32 trailer once all declared records have
// been consumed. Note the re-encoded-varint subtlety: the reader hashes the
// canonical encoding of what it decoded, so a corrupted-but-decodable
// non-minimal varint also fails verification.
func (r *Reader) verify() {
	if !r.checksum || r.verified {
		return
	}
	r.verified = true
	var trailer [4]byte
	if _, err := io.ReadFull(r.r, trailer[:]); err != nil {
		r.err = fmt.Errorf("%w: checksum trailer missing: %w", ErrTruncated, err)
		return
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); want != r.sum {
		r.err = fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, want, r.sum)
	}
}

// Err returns the first error Next met, or nil at a clean end of stream.
func (r *Reader) Err() error { return r.err }

// preallocHint returns a safe initial capacity for collecting the stream:
// the declared count, clamped so hostile headers cannot force huge
// allocations.
func (r *Reader) preallocHint() int {
	if !r.counted || r.remain > maxPrealloc {
		return 0
	}
	return int(r.remain)
}

// Encode writes refs to w in trace format, returning the number written.
// The header count field is left zero (streaming mode, no checksum trailer);
// use EncodeSeeker when a self-describing, checksummed file is needed.
func Encode(w io.Writer, refs []Ref) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	for _, r := range refs {
		if err := tw.Put(r); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Close()
}

// EncodeSeeker writes refs to ws and finishes the file (see Finish),
// producing a fully self-describing, integrity-checked trace file.
func EncodeSeeker(ws io.WriteSeeker, refs []Ref) (uint64, error) {
	tw, err := NewWriter(ws)
	if err != nil {
		return 0, err
	}
	for _, r := range refs {
		if err := tw.Put(r); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Finish(ws)
}

// Finish closes w and completes the self-describing file w has been writing
// to ws, the destination w was created over: it appends a CRC-32 trailer
// over the record bytes and patches the header's checksum flag and record
// count. It returns the number of references written.
func (w *Writer) Finish(ws io.WriteSeeker) (uint64, error) {
	n := w.count
	if err := w.Close(); err != nil {
		return n, err
	}
	if n == 0 {
		// An empty trace has no record region for a count to delimit, so a
		// trailer would be indistinguishable from records; leave the file in
		// streaming form.
		return 0, nil
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], w.sum)
	if _, err := ws.Write(trailer[:]); err != nil {
		return n, fmt.Errorf("trace: writing checksum trailer: %w", err)
	}
	if _, err := ws.Seek(10, io.SeekStart); err != nil {
		return n, fmt.Errorf("trace: seeking to patch header: %w", err)
	}
	var patch [10]byte
	binary.LittleEndian.PutUint16(patch[0:2], FlagChecksum)
	binary.LittleEndian.PutUint64(patch[2:10], n)
	if _, err := ws.Write(patch[:]); err != nil {
		return n, fmt.Errorf("trace: patching header: %w", err)
	}
	if _, err := ws.Seek(0, io.SeekEnd); err != nil {
		return n, err
	}
	return n, nil
}

// Decode reads an entire trace stream into memory.
func Decode(r io.Reader) ([]Ref, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	out := make([]Ref, 0, tr.preallocHint())
	for {
		ref, ok := tr.Next()
		if !ok {
			return out, tr.Err()
		}
		out = append(out, ref)
	}
}

// DecodeSalvage reads as much of a possibly damaged trace as possible: every
// record decoded before the first error is returned, complete reports
// whether the stream was intact, and err carries the typed classification
// (ErrTruncated, ErrCorrupt, ...) when it was not.
//
// For a truncated file the salvaged prefix is exactly the valid records
// before the cut. For a checksummed file that fails verification the prefix
// is structurally valid but its contents are suspect — the checksum cannot
// localize the damage — so complete=false must gate any use of the data.
func DecodeSalvage(r io.Reader) (refs []Ref, complete bool, err error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, false, err
	}
	refs = make([]Ref, 0, tr.preallocHint())
	for {
		ref, ok := tr.Next()
		if !ok {
			break
		}
		refs = append(refs, ref)
	}
	if err := tr.Err(); err != nil {
		return refs, false, err
	}
	return refs, true, nil
}
