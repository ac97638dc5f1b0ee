// Package ibsim is a trace-driven instruction-fetch simulation library that
// reproduces "Instruction Fetching: Coping with Code Bloat" (Uhlig, Nagle,
// Mudge, Sechrest and Emer; ISCA 1995).
//
// The library has three layers, all reachable from this package:
//
//   - Workloads: synthetic models of the paper's IBS benchmark suite (under
//     Mach 3.0 and Ultrix 3.1 OS models) and SPEC-like workloads, generating
//     complete multi-address-space reference traces.
//   - Simulators: cache/TLB/VM substrates and the Section 5 fetch engines
//     (blocking, prefetch-on-miss, bypass buffers, pipelined stream
//     buffers), plus a whole-system DECstation 3100 CPI model.
//   - Experiments: one constructor per table and figure of the paper's
//     evaluation, each returning structured rows plus a text rendering.
//
// Quick start:
//
//	w, _ := ibsim.LoadWorkload("gs")
//	res, _ := ibsim.SimulateCache(w, ibsim.CacheConfig{Size: 8192, LineSize: 32, Assoc: 1}, 1_000_000)
//	fmt.Printf("gs misses per 100 instructions: %.2f\n", 100*res.MissRatio())
package ibsim

import (
	"context"
	"fmt"
	"math"
	"os"

	"ibsim/internal/atomicio"
	"ibsim/internal/cache"
	"ibsim/internal/cpi"
	"ibsim/internal/experiments"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/vm"
)

// Core types, re-exported from the implementation packages.

type (
	// Workload is a synthetic workload model (an IBS or SPEC profile).
	Workload = synth.Profile
	// DomainProfile configures one protection domain of a custom workload.
	DomainProfile = synth.DomainProfile
	// DataProfile configures a workload's data-reference stream.
	DataProfile = synth.DataProfile
	// Ref is a single memory reference.
	Ref = trace.Ref
	// Run is a maximal sequential instruction run in a compacted trace.
	Run = trace.Run
	// RunStats summarizes a compacted trace's sequentiality.
	RunStats = trace.RunStats
	// Domain identifies a protection domain (User, Kernel, BSDServer,
	// XServer).
	Domain = trace.Domain
	// OSModel selects a workload's operating-system structure.
	OSModel = synth.OSModel
	// CacheConfig describes a cache geometry.
	CacheConfig = cache.Config
	// CacheStats reports cache activity.
	CacheStats = cache.Stats
	// Transfer models a memory link (latency + bandwidth).
	Transfer = memsys.Transfer
	// FetchResult reports a fetch engine's CPIinstr and MPI.
	FetchResult = fetch.Result
	// CPIComponents is a whole-system memory-CPI breakdown (Table 1
	// columns).
	CPIComponents = cpi.Components
	// Options controls experiment scale.
	Options = experiments.Options
	// PagePolicy selects a physical-page allocation policy.
	PagePolicy = vm.Policy
)

// Reference kinds and domains.
const (
	IFetch = trace.IFetch
	DRead  = trace.DRead
	DWrite = trace.DWrite

	User      = trace.User
	Kernel    = trace.Kernel
	BSDServer = trace.BSDServer
	XServer   = trace.XServer
)

// Page-allocation policies (Figure 5's mechanism).
const (
	RandomAlloc  = vm.RandomAlloc
	Sequential   = vm.Sequential
	PageColoring = vm.PageColoring
	BinHopping   = vm.BinHopping
)

// Operating-system models.
const (
	// Monolithic is the Ultrix 3.1 structure.
	Monolithic = synth.Monolithic
	// Microkernel is the Mach 3.0 structure.
	Microkernel = synth.Microkernel
)

// Workloads lists every registered workload name: the eight IBS benchmarks
// under Mach 3.0 ("gs", "verilog", ...), their Ultrix 3.1 variants
// ("gs/ultrix", ...), and the SPEC models ("eqntott", "specint92", ...).
func Workloads() []string { return synth.Names() }

// LoadWorkload returns the named workload model.
func LoadWorkload(name string) (Workload, error) { return synth.Lookup(name) }

// IBSMach returns the eight IBS workloads under the Mach 3.0 OS model.
func IBSMach() []Workload { return synth.IBSMach() }

// IBSUltrix returns the eight IBS workloads under the Ultrix 3.1 OS model.
func IBSUltrix() []Workload { return synth.IBSUltrix() }

// SPEC92 returns the three size-representative SPEC92 workloads.
func SPEC92() []Workload { return synth.SPEC92() }

// GenerateTrace produces n instructions of the workload's reference stream,
// including interleaved data references.
func GenerateTrace(w Workload, n int64) ([]Ref, error) { return synth.Trace(w, 0, n) }

// GenerateInstructionTrace produces exactly n instruction-fetch references.
func GenerateInstructionTrace(w Workload, n int64) ([]Ref, error) {
	return synth.InstrTrace(w, 0, n)
}

// SimulateCache replays n instructions of w through a cache and returns its
// statistics. The instruction stream is generated on the fly and read as
// runs (never materialized), so memory use is independent of n.
func SimulateCache(w Workload, cfg CacheConfig, n int64) (CacheStats, error) {
	src, err := synth.NewSeekSource(w, 0, n, nil)
	if err != nil {
		return CacheStats{}, err
	}
	c, err := cache.New(cfg)
	if err != nil {
		return CacheStats{}, err
	}
	err = src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		for _, r := range runs {
			c.AccessRun(r.Start, r.Len, trace.InstrBytes)
		}
		return nil
	})
	return c.Stats(), err
}

// FetchConfig selects and parameterizes a fetch engine.
type FetchConfig struct {
	// L1 is the primary I-cache geometry.
	L1 CacheConfig
	// Link is the L1-to-next-level transfer (latency + bandwidth).
	Link Transfer
	// PrefetchLines enables sequential prefetch-on-miss of N lines.
	PrefetchLines int
	// Bypass adds bypass buffers: the processor resumes on the missing
	// word instead of the full refill.
	Bypass bool
	// StreamBufferLines, when > 0, selects the pipelined stream-buffer
	// engine instead (PrefetchLines and Bypass are then ignored).
	StreamBufferLines int
}

// engine builds the configured engine.
func (fc FetchConfig) engine() (fetch.Engine, error) {
	switch {
	case fc.StreamBufferLines > 0:
		return fetch.NewStream(fc.L1, fc.Link, fc.StreamBufferLines)
	case fc.Bypass:
		return fetch.NewBypass(fc.L1, fc.Link, fc.PrefetchLines)
	default:
		return fetch.NewBlocking(fc.L1, fc.Link, fc.PrefetchLines)
	}
}

// SimulateFetch runs n instructions of w through the configured fetch engine
// and returns its CPIinstr result. Like SimulateCache, it drives the engine
// from the generator's runs in O(1) memory; internal/check asserts the
// result is bit-identical to replaying a materialized trace.
func SimulateFetch(w Workload, fc FetchConfig, n int64) (FetchResult, error) {
	src, err := synth.NewSeekSource(w, 0, n, nil)
	if err != nil {
		return FetchResult{}, err
	}
	e, err := fc.engine()
	if err != nil {
		return FetchResult{}, err
	}
	err = src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		e.FetchRuns(runs)
		return nil
	})
	return e.Result(), err
}

// SimulateSystem runs n instructions of w (with data references) through the
// DECstation 3100 whole-system model and returns the memory-CPI breakdown
// (Table 1's columns) and the user-mode execution share.
func SimulateSystem(w Workload, n int64) (CPIComponents, float64, error) {
	row, err := experiments.DECstationRow(context.Background(), w, 0, n)
	return row.Components, row.UserShare, err
}

// WriteTraceFile generates n instructions of w (with data references) and
// writes them to path in the IBSTRACE binary format. The write is atomic
// (temp file, fsync, rename): path either keeps its previous content or
// holds the complete new trace, never a torn one.
func WriteTraceFile(path string, w Workload, n int64) (written uint64, err error) {
	refs, err := synth.Trace(w, 0, n)
	if err != nil {
		return 0, err
	}
	err = atomicio.WriteTo(path, 0o644, func(f *os.File) error {
		var werr error
		written, werr = trace.EncodeSeeker(f, refs)
		return werr
	})
	if err != nil {
		return 0, fmt.Errorf("ibsim: writing trace file: %w", err)
	}
	return written, nil
}

// ReadTraceFile loads an IBSTRACE file into memory.
func ReadTraceFile(path string) ([]Ref, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ibsim: opening trace file: %w", err)
	}
	defer f.Close()
	return trace.Decode(f)
}

// SalvageTraceFile loads as much of a (possibly truncated or corrupted)
// IBSTRACE file as can be validated: the decoded prefix, a flag reporting
// whether the file was complete, and — when it was not — the typed error
// that ended the decode. A partial result is explicit, never silent: callers
// must check complete before treating the refs as the whole trace.
func SalvageTraceFile(path string) (refs []Ref, complete bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("ibsim: opening trace file: %w", err)
	}
	defer f.Close()
	return trace.DecodeSalvage(f)
}

// Columnar (IBSTRACE/v3) trace files: the block-granular on-disk shape the
// zero-copy replay and sweep paths consume. See internal/trace for the
// format specification.

type (
	// ColumnarTrace is an open IBSTRACE/v3 columnar trace file, read block
	// by block — zero-copy via mmap when the platform allows, plain
	// sequential reads otherwise. Close it when done.
	ColumnarTrace = trace.ColumnarFile
	// ColumnarStats summarizes a columnar file for inspection: block count,
	// per-instruction cost, and the address-delta width histogram that shows
	// where the compression comes from.
	ColumnarStats = trace.ColumnarStats
	// ColumnarDamage reports what salvaging a damaged columnar file dropped.
	ColumnarDamage = trace.ColumnarDamage
)

// WriteColumnarTraceFile generates n instructions of w and writes the
// run-compacted fetch stream to path in the IBSTRACE/v3 columnar format.
// The columnar format is instruction-only — data references are not
// representable — so unlike WriteTraceFile the file carries exactly the
// fetch stream. The write is atomic, like WriteTraceFile. Returns the
// number of blocks written.
func WriteColumnarTraceFile(path string, w Workload, n int64) (blocks int, err error) {
	refs, err := synth.InstrTrace(w, 0, n)
	if err != nil {
		return 0, err
	}
	runs := trace.Compact(refs)
	err = atomicio.WriteTo(path, 0o644, func(f *os.File) error {
		var werr error
		blocks, werr = trace.EncodeColumnar(f, runs)
		return werr
	})
	if err != nil {
		return 0, fmt.Errorf("ibsim: writing columnar trace file: %w", err)
	}
	return blocks, nil
}

// OpenColumnarTrace opens an IBSTRACE/v3 columnar trace file for
// block-granular reading.
func OpenColumnarTrace(path string) (*ColumnarTrace, error) {
	cf, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, fmt.Errorf("ibsim: opening columnar trace file: %w", err)
	}
	return cf, nil
}

// SalvageColumnarTrace opens a possibly damaged columnar trace file,
// keeping every block that passes its CRC and dropping the rest; the damage
// report says exactly what was lost. Like SalvageTraceFile, a partial
// result is explicit, never silent: callers must consult the report before
// treating the file as the whole trace.
func SalvageColumnarTrace(path string) (*ColumnarTrace, *ColumnarDamage, error) {
	cf, dmg, err := trace.SalvageColumnar(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ibsim: salvaging columnar trace file: %w", err)
	}
	return cf, dmg, nil
}

// IsColumnarTraceFile reports whether path's header declares the columnar
// (version 3) format — a 12-byte sniff, not a validation — so tools can
// route a file to the right decoder.
func IsColumnarTraceFile(path string) (bool, error) { return trace.SniffColumnar(path) }

// ConvertTraceToColumnar re-encodes a record-format IBSTRACE file as
// IBSTRACE/v3 columnar: instruction fetches are run-compacted as they are
// decoded and written block by block, so memory holds one block, not the
// trace; data references are dropped (the columnar format is
// instruction-only). The destination write is atomic: a source that fails
// to decode returns its error and leaves no destination. Returns run-length
// statistics of the converted trace.
func ConvertTraceToColumnar(src, dst string) (RunStats, error) {
	f, err := os.Open(src)
	if err != nil {
		return RunStats{}, fmt.Errorf("ibsim: opening trace file: %w", err)
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return RunStats{}, err
	}
	lens := trace.RunLengths{}
	err = atomicio.WriteTo(dst, 0o644, func(out *os.File) error {
		cw, err := trace.NewColumnarWriter(out)
		if err != nil {
			return err
		}
		err = tr.EachRun(func(r trace.Run) error {
			lens.Add(r)
			return cw.PutRun(r)
		})
		if err != nil {
			return err
		}
		return cw.Close()
	})
	if err := tr.Err(); err != nil {
		return RunStats{}, err
	}
	if err != nil {
		return RunStats{}, fmt.Errorf("ibsim: writing columnar trace file: %w", err)
	}
	return lens.Stats(), nil
}

// ConvertColumnarToTrace expands an IBSTRACE/v3 columnar file back to the
// per-reference record format (instruction fetches only) — the shape the
// record-oriented tools consume. The expansion streams block by block, so
// the trace is never materialized in memory. The destination write is
// atomic. Returns the number of references written.
func ConvertColumnarToTrace(src, dst string) (written uint64, err error) {
	cf, err := OpenColumnarTrace(src)
	if err != nil {
		return 0, err
	}
	defer cf.Close()
	err = atomicio.WriteTo(dst, 0o644, func(f *os.File) error {
		tw, err := trace.NewWriter(f)
		if err != nil {
			return err
		}
		err = trace.NewBlockReader(cf).ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
			for _, r := range runs {
				addr := r.Start
				for i := int64(0); i < r.Len; i++ {
					if err := tw.Put(trace.Ref{Addr: addr, Kind: trace.IFetch, Domain: r.Domain}); err != nil {
						return err
					}
					addr += trace.InstrBytes
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		written, err = tw.Finish(f)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("ibsim: writing trace file: %w", err)
	}
	return written, nil
}

// Checkpointed seekable generation: O(1)-memory run readers that can
// position themselves at an arbitrary instruction index by restoring the
// nearest in-memory generator checkpoint and fast-forwarding the remainder
// (internal/synth; EXPERIMENTS.md, "Checkpointed seekable generation").

type (
	// CheckpointIndex is a sorted set of generator checkpoints, each a copy
	// of the generator's mutable state, for one (workload, seed) pair.
	// Shared across generation passes; safe for concurrent use.
	CheckpointIndex = synth.CheckpointIndex
	// CheckpointStats summarizes a checkpoint index: count, bytes held and
	// recording interval.
	CheckpointStats = synth.CheckpointStats
	// SeekableTrace reads a synthetic workload's instruction-fetch stream
	// as runs: ReadRuns(pos, n, fn) hands fn the maximal sequential runs
	// of instructions [pos, pos+n), seeking first unless the last read
	// ended at pos. Not safe for concurrent use.
	SeekableTrace = synth.SeekSource
)

// DefaultCheckpointEvery is the default checkpoint recording interval in
// instructions.
const DefaultCheckpointEvery = synth.DefaultCheckpointEvery

// NewCheckpointIndex returns an empty checkpoint index recording a snapshot
// every `every` instructions (non-positive or too-small values are clamped).
func NewCheckpointIndex(every int64) *CheckpointIndex { return synth.NewCheckpointIndex(every) }

// NewSeekableTrace returns a seekable run reader over w's n-instruction
// fetch stream at seed 0 — the stream GenerateInstructionTrace returns and
// WriteColumnarTraceFile serializes. WriteTraceFile's instruction fetches
// are another stream: its data references draw from the per-domain random
// source the walk draws from. With a non-nil index the source records
// checkpoints as it generates and a seek restores the nearest one ≤ the
// target; with a nil index it still seeks correctly, by regenerating from
// instruction zero.
func NewSeekableTrace(w Workload, n int64, ix *CheckpointIndex) (*SeekableTrace, error) {
	return synth.NewSeekSource(w, 0, n, ix)
}

// CompactTrace reduces a reference stream to its maximal sequential
// instruction runs — the representation the bulk replay path (each engine's
// FetchRuns, driven by internal/replay's fan-out driver) consumes. Data
// references are dropped; Expand-ing the result reproduces exactly the
// instruction fetches of refs.
func CompactTrace(refs []Ref) []Run { return trace.Compact(refs) }

// SummarizeRuns computes run-length statistics (run count, mean/median/max
// length, compaction ratio) for a compacted trace.
func SummarizeRuns(runs []Run) RunStats { return trace.SummarizeRuns(runs) }

// ReplayCache replays an already generated (or loaded) reference stream
// through a cache, counting only instruction fetches.
func ReplayCache(refs []Ref, cfg CacheConfig) (CacheStats, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return CacheStats{}, err
	}
	for _, r := range refs {
		if r.Kind == IFetch {
			c.Access(r.Addr)
		}
	}
	return c.Stats(), nil
}

// ReplayFetch replays a reference stream through a configured fetch engine.
func ReplayFetch(refs []Ref, fc FetchConfig) (FetchResult, error) {
	e, err := fc.engine()
	if err != nil {
		return FetchResult{}, err
	}
	return fetch.Run(e, refs), nil
}

// Baseline memory systems (Table 5).

// EconomyMemory returns the economy baseline link: 30-cycle latency, 4
// bytes/cycle to main memory.
func EconomyMemory() Transfer { return memsys.Economy().Memory }

// HighPerformanceMemory returns the high-performance baseline link: 12-cycle
// latency, 8 bytes/cycle to an ideal off-chip cache.
func HighPerformanceMemory() Transfer { return memsys.HighPerformance().Memory }

// OnChipL2Link returns the paper's on-chip L1↔L2 interface: 6-cycle latency,
// 16 bytes/cycle.
func OnChipL2Link() Transfer { return memsys.L1L2Link() }
