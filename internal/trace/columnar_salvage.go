package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Block-level salvage of damaged columnar traces.
//
// Every block is framed, independently decodable, and individually
// CRC-checked, so damage localizes in a way the version-1 stream cannot
// match: with the footer index intact (its own CRC), salvage drops exactly
// the blocks whose payload fails its checksum or decode and keeps everything
// else, wherever in the file the damage landed. When the trailer or index is
// itself damaged, salvage falls back to walking frames forward from the
// header and keeps the CRC-clean prefix — the same guarantee DecodeSalvage
// gives a truncated v1 file, at block granularity.

// ColumnarDamage reports what SalvageColumnar dropped. A zero DroppedBlocks
// with IndexRebuilt false means the file was intact.
type ColumnarDamage struct {
	// DroppedBlocks and DroppedRefs count the discarded blocks and the
	// instructions they held (per the index when it survived; unknowable —
	// and reported as 0 per block — for blocks lost past a destroyed index).
	DroppedBlocks int
	DroppedRefs   int64
	// IndexRebuilt reports that the trailer or footer index was unusable and
	// the block index was reconstructed by a forward scan (prefix salvage).
	IndexRebuilt bool
	// Err is the typed classification of the first damage encountered
	// (ErrCorrupt, ErrTruncated); nil for an intact file.
	Err error
}

// Damaged reports whether the file needed any repair.
func (d *ColumnarDamage) Damaged() bool {
	return d.DroppedBlocks > 0 || d.IndexRebuilt || d.Err != nil
}

// SalvageColumnar opens a possibly damaged columnar trace, keeping every
// block that passes its CRC and decode. The header must be intact (a file
// that cannot be identified as a columnar trace yields ErrBadMagic /
// ErrBadVersion / ErrTruncated); anything after it is recovered
// best-effort. The returned file serves only the surviving blocks.
func SalvageColumnar(path string) (*ColumnarFile, *ColumnarDamage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if data, unmap, merr := mmapFile(f, st.Size()); merr == nil {
		cf, dmg, err := salvageColumnar(&ColumnarFile{data: data, size: st.Size()})
		if err != nil {
			unmap()
			f.Close()
			return nil, nil, err
		}
		cf.unmap = unmap
		cf.closer = f
		return cf, dmg, nil
	}
	cf, dmg, err := salvageColumnar(&ColumnarFile{ra: f, size: st.Size()})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	cf.closer = f
	return cf, dmg, nil
}

// SalvageColumnarBytes is SalvageColumnar over an in-memory file image.
func SalvageColumnarBytes(data []byte) (*ColumnarFile, *ColumnarDamage, error) {
	return salvageColumnar(&ColumnarFile{data: data, size: int64(len(data))})
}

// salvageColumnar recovers f.metas from a raw file handle (data or ra set,
// size known, nothing parsed yet).
func salvageColumnar(f *ColumnarFile) (*ColumnarFile, *ColumnarDamage, error) {
	if f.size < colHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is too small for a columnar header", ErrTruncated, f.size)
	}
	hdr, err := f.bytes(0, colHeaderSize)
	if err != nil {
		return nil, nil, err
	}
	if string(hdr[:8]) != Magic {
		return nil, nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != ColumnarVersion {
		return nil, nil, fmt.Errorf("%w: %d (want columnar version %d)", ErrBadVersion, v, ColumnarVersion)
	}
	if flags := binary.LittleEndian.Uint16(hdr[10:12]); flags != FlagColumnar {
		return nil, nil, fmt.Errorf("%w: unexpected columnar flags 0x%04x", ErrBadVersion, flags)
	}
	f.blkSize = int(binary.LittleEndian.Uint32(hdr[12:16]))

	dmg := &ColumnarDamage{}
	metas, indexErr := salvageIndex(f)
	if indexErr != nil {
		dmg.IndexRebuilt = true
		dmg.Err = indexErr
		metas = rebuildIndex(f)
	}

	// Keep only blocks whose payload passes its CRC, decodes, and agrees
	// with its index entry; a rebuilt index is decode-derived so its blocks
	// always pass, making this a no-op there.
	var scratch []Run
	kept := metas[:0]
	for _, m := range metas {
		if err := verifyBlock(f, m, &scratch); err != nil {
			dmg.DroppedBlocks++
			dmg.DroppedRefs += m.Refs
			if dmg.Err == nil {
				dmg.Err = err
			}
			continue
		}
		kept = append(kept, m)
	}
	f.metas = kept
	f.refs, f.runs = 0, 0
	for _, m := range kept {
		f.refs += m.Refs
		f.runs += int64(m.Runs)
	}
	return f, dmg, nil
}

// salvageIndex parses the trailer and footer index strictly, as OpenColumnar
// would; any inconsistency fails the whole index so the caller rebuilds.
func salvageIndex(f *ColumnarFile) ([]BlockMeta, error) {
	if f.size < colHeaderSize+colTrailerSize {
		return nil, fmt.Errorf("%w: no room for a columnar trailer", ErrTruncated)
	}
	trailer, err := f.bytes(f.size-colTrailerSize, colTrailerSize)
	if err != nil {
		return nil, err
	}
	if string(trailer[24:32]) != colTailMagic {
		return nil, fmt.Errorf("%w: columnar trailer magic missing", ErrTruncated)
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	totalRefs := int64(binary.LittleEndian.Uint64(trailer[8:16]))
	blocks := int(binary.LittleEndian.Uint32(trailer[16:20]))
	indexCRC := binary.LittleEndian.Uint32(trailer[20:24])
	indexLen := int64(blocks) * colIndexEntrySize
	if blocks < 0 || indexOff < colHeaderSize || indexOff+indexLen != f.size-colTrailerSize || totalRefs < 0 {
		return nil, fmt.Errorf("%w: trailer geometry inconsistent", ErrCorrupt)
	}
	index, err := f.bytes(indexOff, int(indexLen))
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(index); got != indexCRC {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	metas, refs, _, err := parseColumnarIndex(index, blocks, indexOff)
	if err != nil {
		return nil, err
	}
	if refs != totalRefs {
		return nil, fmt.Errorf("%w: index refs %d != trailer refs %d", ErrCorrupt, refs, totalRefs)
	}
	return metas, nil
}

// rebuildIndex reconstructs block metadata by walking frames forward from
// the header, stopping at the first frame that fails its bounds, CRC, or
// decode — without the index there is no way to resynchronize past damage,
// so this is prefix salvage.
func rebuildIndex(f *ColumnarFile) []BlockMeta {
	var metas []BlockMeta
	var scratch []Run
	off := int64(colHeaderSize)
	for off+colFrameSize <= f.size {
		frame, err := f.bytes(off, colFrameSize)
		if err != nil {
			break
		}
		payloadLen := int64(binary.LittleEndian.Uint32(frame[0:4]))
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if payloadLen < colPayloadMin || off+colFrameSize+payloadLen > f.size {
			break
		}
		payload, err := f.bytes(off+colFrameSize, int(payloadLen))
		if err != nil || crc32.ChecksumIEEE(payload) != crc {
			break
		}
		runs, err := decodeColumnarBlock(payload, scratch)
		if err != nil {
			break
		}
		scratch = runs
		m := BlockMeta{Offset: off, PayloadLen: uint32(payloadLen), CRC: crc, Runs: len(runs)}
		for _, r := range runs {
			m.Refs += r.Len
		}
		m.FirstAddr = runs[0].Start
		last := runs[len(runs)-1]
		m.LastAddr = last.Start + uint64(last.Len-1)*InstrBytes
		metas = append(metas, m)
		off += colFrameSize + payloadLen
	}
	return metas
}

// verifyBlock checks one block end to end: frame length, payload CRC,
// decode, and agreement with the index entry.
func verifyBlock(f *ColumnarFile, m BlockMeta, scratch *[]Run) error {
	frame, err := f.bytes(m.Offset, colFrameSize+int(m.PayloadLen))
	if err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(frame[0:4]); got != m.PayloadLen {
		return fmt.Errorf("%w: frame length %d != index %d", ErrCorrupt, got, m.PayloadLen)
	}
	payload := frame[colFrameSize:]
	sum := crc32.ChecksumIEEE(payload)
	if got := binary.LittleEndian.Uint32(frame[4:8]); got != sum || sum != m.CRC {
		return fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	runs, err := decodeColumnarBlock(payload, *scratch)
	*scratch = runs
	if err != nil {
		return err
	}
	return checkBlockMeta(m, runs)
}
