package check

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/trace"
)

// chaosColumnarBlockBytes keeps the chaos fixture multi-block at the 20K-ref
// scale so a "middle block" exists to damage (the delta encoding packs
// roughly 0.4 bytes per instruction, so 2K blocks would leave only a
// handful).
const chaosColumnarBlockBytes = 512

// chaosColumnarSalvage damages a columnar trace inside a middle block — a
// payload bit-flip, then a mid-frame truncation — and asserts the salvage
// contract: the intact footer index localizes the flip to exactly that
// block (DroppedRefs equals its indexed instruction count, every other
// block decodes unchanged), truncation degrades to a clean-prefix rebuild,
// and a fan-out replay over the salvaged trace still satisfies the fetch
// engines' bound invariants — degraded data, never broken physics.
func chaosColumnarSalvage(_ Options, refs []trace.Ref, _ []byte) (string, error) {
	runs := trace.Compact(refs)
	var buf bytes.Buffer
	if _, err := trace.EncodeColumnarSize(&buf, runs, chaosColumnarBlockBytes); err != nil {
		return "", Failf("encoding columnar fixture: %v", err)
	}
	img := buf.Bytes()
	clean, err := trace.NewColumnarBytes(img)
	if err != nil {
		return "", Failf("opening clean fixture: %v", err)
	}
	nb := clean.NumBlocks()
	if nb < 5 {
		return "", Failf("fixture spans only %d blocks; no middle block to damage", nb)
	}
	mid := nb / 2
	m := clean.BlockMeta(mid)

	// Flip one payload bit in the middle block (an 8-byte frame — length +
	// CRC — precedes each payload).
	flipped := append([]byte(nil), img...)
	flipped[m.Offset+8+int64(m.PayloadLen)/2] ^= 0x10
	bad, err := trace.NewColumnarBytes(flipped)
	if err != nil {
		return "", Failf("flipped image no longer opens (index untouched): %v", err)
	}
	if _, err := bad.BlockRuns(mid, nil); !errors.Is(err, trace.ErrCorrupt) {
		return "", Failf("reading the flipped block = %v, want ErrCorrupt", err)
	}
	sf, dmg, err := trace.SalvageColumnarBytes(flipped)
	if err != nil {
		return "", Failf("salvage of flipped image failed: %v", err)
	}
	if !dmg.Damaged() || dmg.IndexRebuilt {
		return "", Failf("flip damage misreported: %+v", dmg)
	}
	if dmg.DroppedBlocks != 1 || dmg.DroppedRefs != m.Refs {
		return "", Failf("flip dropped %d blocks / %d refs, want exactly block %d's 1 / %d",
			dmg.DroppedBlocks, dmg.DroppedRefs, mid, m.Refs)
	}
	if sf.Refs() != clean.Refs()-m.Refs || sf.NumBlocks() != nb-1 {
		return "", Failf("salvaged file holds %d refs in %d blocks, want %d in %d",
			sf.Refs(), sf.NumBlocks(), clean.Refs()-m.Refs, nb-1)
	}
	// Every surviving block must decode to exactly the clean file's runs.
	var cleanRuns, salvRuns []trace.Run
	si := 0
	for b := 0; b < nb; b++ {
		if b == mid {
			continue
		}
		if cleanRuns, err = clean.BlockRuns(b, cleanRuns); err != nil {
			return "", Failf("clean block %d: %v", b, err)
		}
		if salvRuns, err = sf.BlockRuns(si, salvRuns); err != nil {
			return "", Failf("salvaged block %d: %v", si, err)
		}
		if d := runsDiffer(cleanRuns, salvRuns); d != "" {
			return "", Failf("salvaged block %d (clean %d): %s", si, b, d)
		}
		si++
	}
	if r := chaosReplayBounds(sf); r != "" {
		return "", Failf("replay over flip-salvaged trace: %s", r)
	}

	// Truncate mid-frame inside the next-to-last block: trailer and index are
	// gone, so salvage must rebuild by forward scan and keep the clean prefix.
	cutBlock := nb - 2
	cut := clean.BlockMeta(cutBlock).Offset + 11
	trunc := append([]byte(nil), img[:cut]...)
	if _, err := trace.NewColumnarBytes(trunc); !typedDecodeErr(err) {
		return "", Failf("truncated image opened without a typed error: %v", err)
	}
	tf, tdmg, err := trace.SalvageColumnarBytes(trunc)
	if err != nil {
		return "", Failf("salvage of truncated image failed: %v", err)
	}
	if !tdmg.IndexRebuilt || !tdmg.Damaged() {
		return "", Failf("truncation damage misreported: %+v", tdmg)
	}
	if tf.NumBlocks() != cutBlock {
		return "", Failf("prefix salvage kept %d blocks, want the %d before the cut", tf.NumBlocks(), cutBlock)
	}
	var wantPrefix int64
	for b := 0; b < cutBlock; b++ {
		wantPrefix += clean.BlockMeta(b).Refs
	}
	if tf.Refs() != wantPrefix {
		return "", Failf("prefix salvage holds %d refs, want %d", tf.Refs(), wantPrefix)
	}
	for b := 0; b < cutBlock; b++ {
		if cleanRuns, err = clean.BlockRuns(b, cleanRuns); err != nil {
			return "", Failf("clean block %d: %v", b, err)
		}
		if salvRuns, err = tf.BlockRuns(b, salvRuns); err != nil {
			return "", Failf("prefix block %d: %v", b, err)
		}
		if d := runsDiffer(cleanRuns, salvRuns); d != "" {
			return "", Failf("prefix block %d: %s", b, d)
		}
	}
	if r := chaosReplayBounds(tf); r != "" {
		return "", Failf("replay over truncation-salvaged trace: %s", r)
	}
	return fmt.Sprintf("flip in block %d/%d dropped exactly %d refs, truncation kept a %d-block prefix, salvaged replays obey engine bounds",
		mid, nb, m.Refs, cutBlock), nil
}

// chaosReplayBounds fans a salvaged block trace through a small engine bank
// and checks the engine-bound invariants still hold: no engine beats the
// traffic-free stall floor, and bypass-on-miss never loses to the blocking
// engine it refines. Returns "" on success.
func chaosReplayBounds(bs trace.BlockSource) string {
	link := checkLink()
	cfg := baseL1()
	blocking, err := fetch.NewBlocking(cfg, link, 0)
	if err != nil {
		return err.Error()
	}
	bypass, err := fetch.NewBypass(cfg, link, 0)
	if err != nil {
		return err.Error()
	}
	stream, err := fetch.NewStream(cfg, link, 6)
	if err != nil {
		return err.Error()
	}
	engines := []fetch.Engine{blocking, bypass, stream}
	results, err := replay.BlocksParallel(context.Background(), bs, engines, 1)
	if err != nil {
		return err.Error()
	}
	for i, res := range results {
		if res.Instructions == 0 {
			return fmt.Sprintf("engine %d replayed nothing", i)
		}
		if min := res.Misses * int64(link.Latency); res.StallCycles < min {
			return fmt.Sprintf("engine %d: %d stall cycles beat the traffic-free bound %d", i, res.StallCycles, min)
		}
	}
	by, bl := results[1], results[0]
	if by.Misses != bl.Misses {
		return fmt.Sprintf("bypass misses %d != blocking misses %d", by.Misses, bl.Misses)
	}
	if by.StallCycles > bl.StallCycles {
		return fmt.Sprintf("bypass stalled %d > blocking's %d", by.StallCycles, bl.StallCycles)
	}
	return ""
}

// runsDiffer compares two run slices, "" when identical.
func runsDiffer(a, b []trace.Run) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d runs, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("run %d: %+v vs %+v", i, b[i], a[i])
		}
	}
	return ""
}
