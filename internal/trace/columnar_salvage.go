package trace

import (
	"encoding/binary"
	"hash/crc32"
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
	var dmg *ColumnarDamage
	f, err := openColumnar(path, func(f *ColumnarFile) (err error) {
		dmg, err = f.salvage()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return f, dmg, nil
}

// SalvageColumnarBytes is SalvageColumnar over an in-memory file image.
func SalvageColumnarBytes(data []byte) (*ColumnarFile, *ColumnarDamage, error) {
	f := &ColumnarFile{data: data, size: int64(len(data))}
	dmg, err := f.salvage()
	if err != nil {
		return nil, nil, err
	}
	return f, dmg, nil
}

// salvage is parse for a damaged file: past an intact header it takes the
// index parseIndex accepts, or else rebuilds one by forward scan, and then
// keeps exactly the blocks BlockRuns decodes.
func (f *ColumnarFile) salvage() (*ColumnarDamage, error) {
	if err := f.parseHeader(); err != nil {
		return nil, err
	}
	dmg := &ColumnarDamage{}
	if err := f.parseIndex(); err != nil {
		dmg.IndexRebuilt, dmg.Err = true, err
		f.metas = rebuildIndex(f)
	}
	// Filtering in place is safe: block i is read before kept's i-th slot
	// can be written.
	var scratch []Run
	kept := f.metas[:0]
	f.refs, f.runs = 0, 0
	for i, m := range f.metas {
		var err error
		if scratch, err = f.BlockRuns(i, scratch); err != nil {
			dmg.DroppedBlocks++
			dmg.DroppedRefs += m.Refs
			if dmg.Err == nil {
				dmg.Err = err
			}
			continue
		}
		kept = append(kept, m)
		f.refs += m.Refs
		f.runs += int64(m.Runs)
	}
	f.metas = kept
	return dmg, nil
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
