package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The columnar trace format (IBSTRACE/v3).
//
// The record-by-record codec (version 1) decodes a trace through one varint
// cursor, so consumers pay a sequential decode of the whole file before
// simulating. The columnar format restructures a run-compacted trace for the
// opposite access pattern: fixed-size blocks (~1 MB) of column segments that engines iterate
// zero-copy via mmap — or through plain sequential reads — with O(1) memory,
// so a trace ten or a thousand times the RAM budget replays at disk
// bandwidth. It is the on-disk shape of the same observation the paper makes
// about instruction fetch itself: make the hot stream dense and sequential.
//
//	file:    header | block* | index | trailer
//	header:  magic "IBSTRACE" | version u16 = 3 | flags u16 = FlagColumnar |
//	         blockBytes u32 | reserved u64          (24 bytes)
//	block:   payloadLen u32 | crc32 u32 | payload   (frame = 8 bytes + payload)
//	payload: runCount u32 | addrBytes u32 | lenBytes u32 |
//	         addr column | len column | domain column
//	index:   48-byte entry per block (see BlockMeta)
//	trailer: indexOffset u64 | totalRefs u64 | blockCount u32 |
//	         crc32(index) u32 | tail magic "IBSCIDX3"  (32 bytes)
//
// Everything is little-endian. The address column is one zigzag varint per
// run: the delta of the run's word address (Start/4) against the previous
// run's end word address — the branch displacement, effectively — with the
// block's first run encoded against zero, so every block decodes
// independently of its neighbors. The length column is one uvarint per run;
// the domain column packs 2 bits per run. CRC-32 (IEEE) covers each block's
// payload (stored both in the frame and the index entry) and the index bytes
// (stored in the trailer); the header and trailer are validated structurally.
//
// The error contract matches the v1 codec: damage yields ErrBadMagic,
// ErrBadVersion, ErrCorrupt, or ErrTruncated — never a panic, never a
// silently wrong result. Because blocks are self-contained and individually
// checksummed, salvage (SalvageColumnar) drops exactly the CRC-failed blocks
// when the index survives, and keeps the CRC-clean prefix when it does not.

// ColumnarVersion is the trace format version of columnar files.
const ColumnarVersion uint16 = 3

// FlagColumnar marks a columnar (version 3) trace file. It lives in the same
// header flags field as FlagChecksum but only ever appears with version 3, so
// version-1 readers reject columnar files by version before they would
// reject the flag. Bit 1 is unassigned: version-1 readers refuse a header
// carrying it with ErrBadVersion.
const FlagColumnar uint16 = 1 << 2

// maxRunLen bounds a single run's length: far beyond any real trace, so a
// damaged or hostile length cannot force a consumer into an absurd amount
// of work.
const maxRunLen = 1 << 40

// DefaultBlockBytes is the target block payload size: large enough that
// per-block overheads (frame, index entry, decode setup) vanish, small
// enough that one decoded block's runs stay cache- and budget-friendly.
const DefaultBlockBytes = 1 << 20

// minBlockBytes keeps configurable block sizes sane; tests use small blocks
// to exercise multi-block paths cheaply.
const minBlockBytes = 64

const (
	colHeaderSize     = 24
	colFrameSize      = 8
	colPayloadMin     = 15 // 12-byte column header + 1-byte addr + 1-byte len + 1-byte domain
	colIndexEntrySize = 48
	colTrailerSize    = 32
)

// colTailMagic ends every columnar file; OpenColumnar finds the trailer by
// seeking to EOF-32, so the tail magic is the first integrity check.
const colTailMagic = "IBSCIDX3"

// BlockMeta is one footer-index entry: where a block lives, what it holds,
// and its payload checksum. First/LastAddr are the byte addresses of the
// block's first and last instruction — enough to route address-ranged
// consumers (set-sampled sweeps, victim analysis) past blocks they cannot
// touch; Refs gives sampled time-windows an O(log blocks) seek to any
// absolute instruction position.
type BlockMeta struct {
	// Offset is the file offset of the block's 8-byte frame.
	Offset int64
	// PayloadLen is the block payload size in bytes (frame excluded).
	PayloadLen uint32
	// CRC is the CRC-32 (IEEE) of the payload bytes.
	CRC uint32
	// Refs is the number of instructions the block's runs expand to.
	Refs int64
	// Runs is the number of run records in the block.
	Runs int
	// FirstAddr and LastAddr are the byte addresses of the block's first
	// and last instruction.
	FirstAddr uint64
	LastAddr  uint64
}

// BlockSource is a run-compacted trace exposed as independently decodable
// blocks — the unit the block-granular sweep and replay loops consume, and
// the natural parallel unit for fan-out. ColumnarFile implements it over a
// file; RunsBlocks adapts an in-memory []Run for differential testing.
//
// BlockRuns decodes block i into dst[:0] and returns the extended slice, so
// a caller looping over blocks with one reused buffer allocates nothing
// after the first block. Implementations must allow concurrent BlockRuns
// calls with distinct dst buffers.
type BlockSource interface {
	// NumBlocks returns the number of blocks.
	NumBlocks() int
	// BlockMeta returns block i's index entry.
	BlockMeta(i int) BlockMeta
	// BlockRuns appends block i's runs to dst[:0] and returns the result.
	BlockRuns(i int, dst []Run) ([]Run, error)
}

// ColumnarWriter encodes a run-compacted trace to the columnar format. Runs
// stream in through PutRun, blocks flush as they fill, and Close writes the
// footer index and trailer — append-only, no seeking, so it writes equally
// well to a file, a pipe, or a hash. Error handling is sticky and Close is
// idempotent, matching Writer.
type ColumnarWriter struct {
	w          io.Writer
	blockBytes int

	addrBuf []byte
	lenBuf  []byte
	domBuf  []byte
	scratch []byte

	rc       int
	prevEnd  uint64 // previous run's end word address within the open block
	blkRefs  int64
	blkFirst uint64
	blkLast  uint64

	off   int64
	metas []BlockMeta
	refs  int64
	runs  int64

	varbuf [binary.MaxVarintLen64]byte
	err    error
	closed bool
}

// NewColumnarWriter writes the columnar header to w and returns a writer
// with the default block size.
func NewColumnarWriter(w io.Writer) (*ColumnarWriter, error) {
	return NewColumnarWriterSize(w, DefaultBlockBytes)
}

// NewColumnarWriterSize is NewColumnarWriter with an explicit target block
// payload size (>= 64 bytes; tests use small blocks to exercise multi-block
// paths cheaply).
func NewColumnarWriterSize(w io.Writer, blockBytes int) (*ColumnarWriter, error) {
	if blockBytes < minBlockBytes {
		return nil, fmt.Errorf("trace: columnar block size %d below minimum %d", blockBytes, minBlockBytes)
	}
	var hdr [colHeaderSize]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint16(hdr[8:10], ColumnarVersion)
	binary.LittleEndian.PutUint16(hdr[10:12], FlagColumnar)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(blockBytes))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing columnar header: %w", err)
	}
	return &ColumnarWriter{w: w, blockBytes: blockBytes, off: colHeaderSize}, nil
}

// PutRun appends one run. Runs must be instruction-aligned (Start a multiple
// of InstrBytes — the address column stores word addresses), non-empty, and
// non-wrapping, mirroring Writer.PutRun's validation.
func (cw *ColumnarWriter) PutRun(r Run) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return ErrWriterClosed
	}
	if r.Domain >= NumDomains {
		cw.err = fmt.Errorf("trace: invalid domain %d", r.Domain)
		return cw.err
	}
	if r.Len <= 0 || r.Len > maxRunLen {
		cw.err = fmt.Errorf("trace: invalid run length %d", r.Len)
		return cw.err
	}
	if r.Start%InstrBytes != 0 {
		cw.err = fmt.Errorf("trace: run start %#x not %d-byte aligned", r.Start, InstrBytes)
		return cw.err
	}
	if r.End() <= r.Start && r.End() != 0 { // End()==0: run ends exactly at the top
		cw.err = fmt.Errorf("trace: run at %#x wraps the address space", r.Start)
		return cw.err
	}

	word := r.Start / InstrBytes
	delta := int64(word - cw.prevEnd) // two's-complement difference: exact for any pair of word addresses
	cw.addrBuf = appendZigzag(cw.addrBuf, delta)
	n := binary.PutUvarint(cw.varbuf[:], uint64(r.Len))
	cw.lenBuf = append(cw.lenBuf, cw.varbuf[:n]...)
	if cw.rc%4 == 0 {
		cw.domBuf = append(cw.domBuf, 0)
	}
	cw.domBuf[len(cw.domBuf)-1] |= byte(r.Domain) << ((cw.rc % 4) * 2)

	if cw.rc == 0 {
		cw.blkFirst = r.Start
	}
	cw.blkLast = r.Start + uint64(r.Len-1)*InstrBytes
	cw.prevEnd = r.End() / InstrBytes
	cw.rc++
	cw.blkRefs += r.Len
	cw.refs += r.Len
	cw.runs++

	if cw.payloadLen() >= cw.blockBytes {
		cw.err = cw.flushBlock()
	}
	return cw.err
}

// Refs and Runs return the instruction and run counts written so far.
func (cw *ColumnarWriter) Refs() int64 { return cw.refs }
func (cw *ColumnarWriter) Runs() int64 { return cw.runs }

// Size returns the encoded bytes so far: the header and every flushed
// block, plus the open block as flushing it now would frame it (Close's
// index and trailer excluded). A caller enforcing a size budget mid-stream
// polls Size rather than what has reached the underlying writer, which
// trails it by up to a whole block.
func (cw *ColumnarWriter) Size() int64 {
	if cw.rc == 0 {
		return cw.off
	}
	return cw.off + int64(colFrameSize+cw.payloadLen())
}

// payloadLen is the open block's payload size: the 12-byte column header
// (run count, address and length column sizes) plus the three columns.
func (cw *ColumnarWriter) payloadLen() int {
	return 12 + len(cw.addrBuf) + len(cw.lenBuf) + len(cw.domBuf)
}

// flushBlock frames and writes the open block and records its index entry.
func (cw *ColumnarWriter) flushBlock() error {
	if cw.rc == 0 {
		return nil
	}
	payloadLen := cw.payloadLen()
	total := colFrameSize + payloadLen
	if cap(cw.scratch) < total {
		cw.scratch = make([]byte, 0, total+total/4)
	}
	b := cw.scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(payloadLen))
	b = append(b, 0, 0, 0, 0) // CRC placeholder
	b = binary.LittleEndian.AppendUint32(b, uint32(cw.rc))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cw.addrBuf)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cw.lenBuf)))
	b = append(b, cw.addrBuf...)
	b = append(b, cw.lenBuf...)
	b = append(b, cw.domBuf...)
	sum := crc32.ChecksumIEEE(b[colFrameSize:])
	binary.LittleEndian.PutUint32(b[4:8], sum)
	if _, err := cw.w.Write(b); err != nil {
		return err
	}
	cw.metas = append(cw.metas, BlockMeta{
		Offset:     cw.off,
		PayloadLen: uint32(payloadLen),
		CRC:        sum,
		Refs:       cw.blkRefs,
		Runs:       cw.rc,
		FirstAddr:  cw.blkFirst,
		LastAddr:   cw.blkLast,
	})
	cw.off += int64(total)
	cw.addrBuf = cw.addrBuf[:0]
	cw.lenBuf = cw.lenBuf[:0]
	cw.domBuf = cw.domBuf[:0]
	cw.rc = 0
	cw.prevEnd = 0
	cw.blkRefs = 0
	return nil
}

// Close flushes the partial block and writes the footer index and trailer.
// It does not close the underlying writer. Idempotent and sticky.
func (cw *ColumnarWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	if cw.err != nil {
		return cw.err
	}
	if cw.err = cw.flushBlock(); cw.err != nil {
		return cw.err
	}
	index := make([]byte, 0, len(cw.metas)*colIndexEntrySize)
	for _, m := range cw.metas {
		index = binary.LittleEndian.AppendUint64(index, uint64(m.Offset))
		index = binary.LittleEndian.AppendUint32(index, m.PayloadLen)
		index = binary.LittleEndian.AppendUint32(index, m.CRC)
		index = binary.LittleEndian.AppendUint64(index, uint64(m.Refs))
		index = binary.LittleEndian.AppendUint32(index, uint32(m.Runs))
		index = binary.LittleEndian.AppendUint32(index, 0)
		index = binary.LittleEndian.AppendUint64(index, m.FirstAddr)
		index = binary.LittleEndian.AppendUint64(index, m.LastAddr)
	}
	if _, err := cw.w.Write(index); err != nil {
		cw.err = err
		return cw.err
	}
	var trailer [colTrailerSize]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(cw.off))
	binary.LittleEndian.PutUint64(trailer[8:16], uint64(cw.refs))
	binary.LittleEndian.PutUint32(trailer[16:20], uint32(len(cw.metas)))
	binary.LittleEndian.PutUint32(trailer[20:24], crc32.ChecksumIEEE(index))
	copy(trailer[24:32], colTailMagic)
	if _, err := cw.w.Write(trailer[:]); err != nil {
		cw.err = err
	}
	return cw.err
}

// appendZigzag appends v in zigzag varint encoding (small magnitudes of
// either sign stay short — run-start deltas are branch displacements).
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// EncodeColumnar writes runs to w as a columnar trace with the default block
// size, returning the number of blocks written.
func EncodeColumnar(w io.Writer, runs []Run) (int, error) {
	return EncodeColumnarSize(w, runs, DefaultBlockBytes)
}

// EncodeColumnarSize is EncodeColumnar with an explicit block size.
func EncodeColumnarSize(w io.Writer, runs []Run, blockBytes int) (int, error) {
	cw, err := NewColumnarWriterSize(w, blockBytes)
	if err != nil {
		return 0, err
	}
	for _, r := range runs {
		if err := cw.PutRun(r); err != nil {
			return len(cw.metas), err
		}
	}
	if err := cw.Close(); err != nil {
		return len(cw.metas), err
	}
	return len(cw.metas), nil
}

// ColumnarFile is an open columnar trace. In mapped mode (the default when
// the platform allows) BlockRuns slices payloads straight out of the mapping
// — zero-copy, the page cache is the only buffer; otherwise it falls back to
// sequential ReadAt with one transient frame buffer per call. Both modes are
// safe for concurrent BlockRuns calls with distinct dst buffers.
type ColumnarFile struct {
	data    []byte // whole file when mapped or in-memory; nil in ReaderAt mode
	ra      io.ReaderAt
	closer  io.Closer
	unmap   func() error
	size    int64
	path    string // backing file, when opened from one
	metas   []BlockMeta
	refs    int64
	runs    int64
	blkSize int
}

// Path returns the backing file's path, or "" for in-memory / ReaderAt
// traces. The differential checks use it to compare files byte for byte.
func (f *ColumnarFile) Path() string { return f.path }

// OpenColumnar opens a columnar trace file, mmapping it read-only when the
// platform supports it and falling back to sequential reads otherwise. The
// header, trailer, and index (including the index CRC) are validated here;
// block payload CRCs are checked on every BlockRuns decode.
func OpenColumnar(path string) (*ColumnarFile, error) {
	return openColumnar(path, (*ColumnarFile).parse)
}

// openColumnar opens path as a ColumnarFile, mmapped when the platform
// allows and read through ReadAt otherwise, and hands it to parse; the file
// is closed again if parse fails.
func openColumnar(path string, parse func(*ColumnarFile) error) (*ColumnarFile, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, err
	}
	f := &ColumnarFile{ra: fh, closer: fh, size: st.Size(), path: path}
	if data, unmap, merr := mmapFile(fh, st.Size()); merr == nil {
		f.data, f.unmap = data, unmap
	}
	if err := parse(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// SniffColumnar reports whether path's header declares the columnar
// (version 3) format. Only the 12-byte header prefix is read — the body is
// not validated — so tools can route a file to the right decoder before
// committing to a full open. A file too short to hold a header, or without
// the IBSTRACE magic, yields the typed error a full open would.
func SniffColumnar(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false, fmt.Errorf("%w: file shorter than a trace header", ErrTruncated)
	}
	if string(hdr[:8]) != Magic {
		return false, ErrBadMagic
	}
	return binary.LittleEndian.Uint16(hdr[8:10]) == ColumnarVersion, nil
}

// NewColumnarBytes opens a columnar trace held in memory (tests, fuzzing,
// network transports).
func NewColumnarBytes(data []byte) (*ColumnarFile, error) {
	f := &ColumnarFile{data: data, size: int64(len(data))}
	if err := f.parse(); err != nil {
		return nil, err
	}
	return f, nil
}

// NewColumnarReaderAt opens a columnar trace through an io.ReaderAt of the
// given size — the explicit sequential-read mode, also used as the mmap
// fallback.
func NewColumnarReaderAt(ra io.ReaderAt, size int64) (*ColumnarFile, error) {
	f := &ColumnarFile{ra: ra, size: size}
	if err := f.parse(); err != nil {
		return nil, err
	}
	return f, nil
}

// Close releases the mapping and the underlying file, if any.
func (f *ColumnarFile) Close() error {
	var first error
	if f.unmap != nil {
		first = f.unmap()
		f.unmap = nil
	}
	f.data = nil
	if f.closer != nil {
		if err := f.closer.Close(); err != nil && first == nil {
			first = err
		}
		f.closer = nil
	}
	return first
}

// NumBlocks implements BlockSource.
func (f *ColumnarFile) NumBlocks() int { return len(f.metas) }

// BlockMeta implements BlockSource.
func (f *ColumnarFile) BlockMeta(i int) BlockMeta { return f.metas[i] }

// Refs returns the total instruction count; Runs the total run count.
func (f *ColumnarFile) Refs() int64 { return f.refs }
func (f *ColumnarFile) Runs() int64 { return f.runs }

// Size returns the file size in bytes — what the synth store charges its
// disk budget.
func (f *ColumnarFile) Size() int64 { return f.size }

// BlockBytes returns the file's target block payload size.
func (f *ColumnarFile) BlockBytes() int { return f.blkSize }

// Mapped reports whether the file is consumed through an mmap (zero-copy)
// rather than sequential reads.
func (f *ColumnarFile) Mapped() bool { return f.data != nil }

// bytes returns the n bytes at off: a zero-copy slice in mapped mode, a
// fresh ReadAt buffer otherwise.
func (f *ColumnarFile) bytes(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > f.size {
		return nil, fmt.Errorf("%w: block bytes [%d,+%d) outside file of %d bytes", ErrCorrupt, off, n, f.size)
	}
	if f.data != nil {
		return f.data[off : off+int64(n)], nil
	}
	buf := make([]byte, n)
	if _, err := f.ra.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("%w: reading block at %d: %w", ErrTruncated, off, err)
	}
	return buf, nil
}

// BlockRuns implements BlockSource: it CRC-checks and decodes block i into
// dst[:0]. The decoded runs are cross-checked against the index entry (ref
// count, first/last address), so a block that passes its own CRC but
// disagrees with the index is still rejected as corrupt.
func (f *ColumnarFile) BlockRuns(i int, dst []Run) ([]Run, error) {
	if i < 0 || i >= len(f.metas) {
		return dst[:0], fmt.Errorf("trace: block %d out of range [0,%d)", i, len(f.metas))
	}
	m := f.metas[i]
	frame, err := f.bytes(m.Offset, colFrameSize+int(m.PayloadLen))
	if err != nil {
		return dst[:0], err
	}
	if got := binary.LittleEndian.Uint32(frame[0:4]); got != m.PayloadLen {
		return dst[:0], fmt.Errorf("%w: block %d frame length %d != index %d", ErrCorrupt, i, got, m.PayloadLen)
	}
	payload := frame[colFrameSize:]
	sum := crc32.ChecksumIEEE(payload)
	if got := binary.LittleEndian.Uint32(frame[4:8]); got != sum || sum != m.CRC {
		return dst[:0], fmt.Errorf("%w: block %d checksum mismatch (frame %08x, index %08x, computed %08x)", ErrCorrupt, i, binary.LittleEndian.Uint32(frame[4:8]), m.CRC, sum)
	}
	dst, err = decodeColumnarBlock(payload, dst)
	if err != nil {
		return dst[:0], fmt.Errorf("block %d: %w", i, err)
	}
	if err := checkBlockMeta(m, dst); err != nil {
		return dst[:0], fmt.Errorf("block %d: %w", i, err)
	}
	return dst, nil
}

// checkBlockMeta verifies that decoded runs agree with their index entry.
func checkBlockMeta(m BlockMeta, runs []Run) error {
	var refs int64
	for _, r := range runs {
		refs += r.Len
	}
	if len(runs) != m.Runs || refs != m.Refs {
		return fmt.Errorf("%w: decoded %d runs/%d refs, index says %d/%d", ErrCorrupt, len(runs), refs, m.Runs, m.Refs)
	}
	if len(runs) > 0 {
		last := runs[len(runs)-1]
		if runs[0].Start != m.FirstAddr || last.Start+uint64(last.Len-1)*InstrBytes != m.LastAddr {
			return fmt.Errorf("%w: decoded address range disagrees with index", ErrCorrupt)
		}
	}
	return nil
}

// decodeColumnarBlock decodes one block payload into dst[:0]. It enforces
// canonical encoding — column sizes must match the declared run count
// exactly, spare domain bits must be zero — so a structurally plausible but
// tampered block cannot decode to a different trace than was written.
func decodeColumnarBlock(payload []byte, dst []Run) ([]Run, error) {
	dst = dst[:0]
	if len(payload) < colPayloadMin {
		return dst, fmt.Errorf("%w: block payload %d bytes below minimum %d", ErrCorrupt, len(payload), colPayloadMin)
	}
	rc := int(binary.LittleEndian.Uint32(payload[0:4]))
	addrBytes := int(binary.LittleEndian.Uint32(payload[4:8]))
	lenBytes := int(binary.LittleEndian.Uint32(payload[8:12]))
	domBytes := (rc + 3) / 4
	if rc <= 0 || addrBytes < rc || lenBytes < rc ||
		12+addrBytes+lenBytes+domBytes != len(payload) {
		return dst, fmt.Errorf("%w: block geometry (%d runs, %d addr bytes, %d len bytes) inconsistent with %d-byte payload", ErrCorrupt, rc, addrBytes, lenBytes, len(payload))
	}
	addrCol := payload[12 : 12+addrBytes]
	lenCol := payload[12+addrBytes : 12+addrBytes+lenBytes]
	domCol := payload[12+addrBytes+lenBytes:]
	if rc%4 != 0 && domCol[domBytes-1]>>((rc%4)*2) != 0 {
		return dst, fmt.Errorf("%w: nonzero spare domain bits", ErrCorrupt)
	}

	if cap(dst) < rc && rc <= maxPrealloc {
		dst = make([]Run, 0, rc)
	}
	var prevEnd uint64
	ai, li := 0, 0
	for k := 0; k < rc; k++ {
		zz, n := binary.Uvarint(addrCol[ai:])
		if n <= 0 {
			return dst[:0], fmt.Errorf("%w: run %d address delta unreadable", ErrCorrupt, k)
		}
		ai += n
		delta := int64(zz>>1) ^ -int64(zz&1)
		word := prevEnd + uint64(delta)
		length, n := binary.Uvarint(lenCol[li:])
		if n <= 0 {
			return dst[:0], fmt.Errorf("%w: run %d length unreadable", ErrCorrupt, k)
		}
		li += n
		if length == 0 || length > maxRunLen {
			return dst[:0], fmt.Errorf("%w: invalid run length %d", ErrCorrupt, length)
		}
		r := Run{
			Start:  word * InstrBytes,
			Len:    int64(length),
			Domain: Domain(domCol[k>>2] >> ((k & 3) * 2) & 3),
		}
		if r.Start/InstrBytes != word {
			return dst[:0], fmt.Errorf("%w: run %d word address %#x overflows", ErrCorrupt, k, word)
		}
		if r.End() <= r.Start && r.End() != 0 { // End()==0: run ends exactly at the top
			return dst[:0], fmt.Errorf("%w: run at %#x wraps the address space", ErrCorrupt, r.Start)
		}
		prevEnd = r.End() / InstrBytes
		dst = append(dst, r)
	}
	if ai != addrBytes || li != lenBytes {
		return dst[:0], fmt.Errorf("%w: %d addr / %d len bytes unconsumed", ErrCorrupt, addrBytes-ai, lenBytes-li)
	}
	return dst, nil
}

// parse validates the header, trailer, and index of a handle that has data
// or ra and size set, and records the block metadata.
func (f *ColumnarFile) parse() error {
	if f.size < colHeaderSize+colTrailerSize {
		return fmt.Errorf("%w: %d bytes is too small for a columnar trace", ErrTruncated, f.size)
	}
	if err := f.parseHeader(); err != nil {
		return err
	}
	return f.parseIndex()
}

// parseHeader validates the header and records the target block size.
func (f *ColumnarFile) parseHeader() error {
	if f.size < colHeaderSize {
		return fmt.Errorf("%w: %d bytes is too small for a columnar header", ErrTruncated, f.size)
	}
	hdr, err := f.bytes(0, colHeaderSize)
	if err != nil {
		return err
	}
	if string(hdr[:8]) != Magic {
		return ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != ColumnarVersion {
		return fmt.Errorf("%w: %d (want columnar version %d)", ErrBadVersion, v, ColumnarVersion)
	}
	if flags := binary.LittleEndian.Uint16(hdr[10:12]); flags != FlagColumnar {
		return fmt.Errorf("%w: unexpected columnar flags 0x%04x", ErrBadVersion, flags)
	}
	f.blkSize = int(binary.LittleEndian.Uint32(hdr[12:16]))
	return nil
}

// parseIndex validates the trailer and the footer index (its CRC included)
// and records the block metadata and totals.
func (f *ColumnarFile) parseIndex() error {
	if f.size < colHeaderSize+colTrailerSize {
		return fmt.Errorf("%w: no room for a columnar trailer", ErrTruncated)
	}
	trailer, err := f.bytes(f.size-colTrailerSize, colTrailerSize)
	if err != nil {
		return err
	}
	if string(trailer[24:32]) != colTailMagic {
		return fmt.Errorf("%w: columnar trailer magic missing", ErrTruncated)
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	totalRefs := int64(binary.LittleEndian.Uint64(trailer[8:16]))
	blocks := int(binary.LittleEndian.Uint32(trailer[16:20]))
	indexCRC := binary.LittleEndian.Uint32(trailer[20:24])
	indexLen := int64(blocks) * colIndexEntrySize
	if blocks < 0 || indexOff < colHeaderSize || indexOff+indexLen != f.size-colTrailerSize || totalRefs < 0 {
		return fmt.Errorf("%w: trailer geometry (index at %d, %d blocks) inconsistent with %d-byte file", ErrCorrupt, indexOff, blocks, f.size)
	}
	index, err := f.bytes(indexOff, int(indexLen))
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(index); got != indexCRC {
		return fmt.Errorf("%w: index checksum mismatch (trailer %08x, computed %08x)", ErrCorrupt, indexCRC, got)
	}
	metas, refs, runs, err := parseColumnarIndex(index, blocks, indexOff)
	if err != nil {
		return err
	}
	if refs != totalRefs {
		return fmt.Errorf("%w: index refs %d != trailer refs %d", ErrCorrupt, refs, totalRefs)
	}
	f.metas, f.refs, f.runs = metas, refs, runs
	return nil
}

// parseColumnarIndex decodes and structurally validates the footer index:
// blocks must tile [header, indexOff) in order with no gaps or overlaps.
func parseColumnarIndex(index []byte, blocks int, indexOff int64) ([]BlockMeta, int64, int64, error) {
	metas := make([]BlockMeta, blocks)
	var refs, runs int64
	next := int64(colHeaderSize)
	for i := range metas {
		e := index[i*colIndexEntrySize:]
		m := BlockMeta{
			Offset:     int64(binary.LittleEndian.Uint64(e[0:8])),
			PayloadLen: binary.LittleEndian.Uint32(e[8:12]),
			CRC:        binary.LittleEndian.Uint32(e[12:16]),
			Refs:       int64(binary.LittleEndian.Uint64(e[16:24])),
			Runs:       int(binary.LittleEndian.Uint32(e[24:28])),
			FirstAddr:  binary.LittleEndian.Uint64(e[32:40]),
			LastAddr:   binary.LittleEndian.Uint64(e[40:48]),
		}
		if m.Offset != next || m.PayloadLen < colPayloadMin ||
			m.Offset+colFrameSize+int64(m.PayloadLen) > indexOff ||
			m.Refs <= 0 || m.Runs <= 0 || int64(m.Runs) > m.Refs {
			return nil, 0, 0, fmt.Errorf("%w: index entry %d invalid (offset %d, payload %d, %d runs, %d refs)", ErrCorrupt, i, m.Offset, m.PayloadLen, m.Runs, m.Refs)
		}
		next = m.Offset + colFrameSize + int64(m.PayloadLen)
		metas[i] = m
		refs += m.Refs
		runs += int64(m.Runs)
	}
	if next != indexOff {
		return nil, 0, 0, fmt.Errorf("%w: %d bytes between last block and index", ErrCorrupt, indexOff-next)
	}
	return metas, refs, runs, nil
}
