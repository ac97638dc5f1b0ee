package check

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"ibsim/internal/experiments"
	"ibsim/internal/fault"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// Faults is the deterministic fault-injection table (ibscheck -faults):
// each scenario perturbs an I/O or execution path with seeded faults and
// asserts the robustness contract — a typed error (ErrCorrupt/ErrTruncated,
// an extractable injected cause, ErrOverBudget, *WorkerError), never a panic
// and never a silently wrong result. Run contains panics, so even a
// regression that reintroduces one is reported as an ordinary failing
// Result.
var Faults = []Check{
	{"chaos/truncation", onFixture(chaosTruncation)},
	{"chaos/bit-flip", onFixture(chaosBitFlip)},
	{"chaos/short-read", onFixture(chaosShortRead)},
	{"chaos/error-after-n", onFixture(chaosErrAfter)},
	{"chaos/columnar-salvage", onFixture(chaosColumnarSalvage)},
	{"chaos/write-fault-sticky", onFixture(chaosWriteFault)},
	{"chaos/over-budget-store", chaosOverBudget},
	{"chaos/worker-panic", chaosWorkerPanic},
	{"chaos/server-slow-loris", chaosServerSlowLoris},
	{"chaos/server-cancel", chaosServerCancel},
	{"chaos/server-over-budget", chaosServerOverBudget},
	{"chaos/server-runs-tier", chaosServerRunsTier},
	{"chaos/server-panic", chaosServerPanic},
	{"chaos/crash-atomicio", chaosCrashAtomicio},
	{"chaos/crash-manifest", chaosCrashManifest},
	{"chaos/crash-spill", chaosCrashSpill},
}

// onFixture adapts a codec scenario to a Check: it gets the first
// workload's 20,000-instruction trace and that trace encoded as a counted
// IBSTRACE file.
func onFixture(scenario func(opt Options, refs []trace.Ref, data []byte) (string, error)) func(Options) (string, error) {
	return func(opt Options) (string, error) {
		refs, err := synth.InstrTrace(opt.Workloads[0], opt.Seed, 20_000)
		if err != nil {
			return "", fmt.Errorf("chaos: generating fixture trace: %w", err)
		}
		var sb memSeeker
		if _, err := trace.EncodeSeeker(&sb, refs); err != nil {
			return "", fmt.Errorf("chaos: encoding fixture trace: %w", err)
		}
		return scenario(opt, refs, sb.buf)
	}
}

// typedDecodeErr reports whether err carries the decoder's typed contract.
func typedDecodeErr(err error) bool {
	return errors.Is(err, trace.ErrCorrupt) || errors.Is(err, trace.ErrTruncated)
}

// chaosTruncation cuts the encoded trace at assorted points: Decode must
// fail typed, and DecodeSalvage must recover exactly a prefix with the
// partial flag set.
func chaosTruncation(_ Options, refs []trace.Ref, data []byte) (string, error) {
	cuts := []int{0, 7, 20, 21, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		mut := fault.Truncate(data, int64(cut))
		if _, err := trace.Decode(bytes.NewReader(mut)); err == nil {
			return "", Failf("cut at %d decoded without error", cut)
		}
		got, complete, err := trace.DecodeSalvage(bytes.NewReader(mut))
		if complete {
			return "", Failf("cut at %d salvaged as complete", cut)
		}
		if cut >= 20 && !typedDecodeErr(err) {
			return "", Failf("cut at %d: untyped salvage error %v", cut, err)
		}
		if len(got) > len(refs) {
			return "", Failf("cut at %d salvaged %d refs from a %d-ref trace", cut, len(got), len(refs))
		}
		for i := range got {
			if got[i] != refs[i] {
				return "", Failf("cut at %d: salvaged ref %d is not a prefix", cut, i)
			}
		}
	}
	return fmt.Sprintf("%d cut points: typed errors, exact-prefix salvage", len(cuts)), nil
}

// chaosBitFlip flips seeded bits in the record body and trailer: every
// corrupted stream either fails typed or decodes to the exact original.
func chaosBitFlip(opt Options, refs []trace.Ref, data []byte) (string, error) {
	const trials = 64
	rng := xrand.New(opt.Seed ^ 0xb17f11b5)
	caught := 0
	for trial := 0; trial < trials; trial++ {
		// Corrupt payload bytes only; header corruption is FuzzHeader's job.
		flipped := fault.FlipBits(data[20:], rng.Uint64(), 1+int(rng.Uint64n(3)))
		mut := append(append([]byte(nil), data[:20]...), flipped...)
		got, err := trace.Decode(bytes.NewReader(mut))
		if err != nil {
			if !typedDecodeErr(err) {
				return "", Failf("trial %d: untyped error %v", trial, err)
			}
			caught++
			continue
		}
		if len(got) != len(refs) {
			return "", Failf("trial %d: silent wrong count %d", trial, len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				return "", Failf("trial %d: silent wrong ref %d", trial, i)
			}
		}
	}
	if caught == 0 {
		return "", Failf("no corruption detected across %d trials", trials)
	}
	return fmt.Sprintf("%d/%d seeded corruptions caught, rest decoded exactly", caught, trials), nil
}

// chaosShortRead decodes through a reader that delivers arbitrary short
// reads; the result must be identical to a direct decode.
func chaosShortRead(opt Options, refs []trace.Ref, data []byte) (string, error) {
	for trial := 0; trial < 8; trial++ {
		r := fault.NewReader(bytes.NewReader(data), fault.Plan{ShortIO: true, Seed: opt.Seed + uint64(trial)})
		got, err := trace.Decode(r)
		if err != nil {
			return "", Failf("trial %d: decode failed under short reads: %v", trial, err)
		}
		if len(got) != len(refs) {
			return "", Failf("trial %d: %d refs, want %d", trial, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				return "", Failf("trial %d: ref %d differs", trial, i)
			}
		}
	}
	return fmt.Sprintf("8 short-read schedules decoded identically"), nil
}

// chaosErrAfter injects an I/O error after N bytes: the decode must fail
// with the injected cause still extractable via errors.Is.
func chaosErrAfter(_ Options, _ []trace.Ref, data []byte) (string, error) {
	boom := errors.New("chaos: injected disk failure")
	offsets := []int64{0, 5, 19, 20, 33, int64(len(data)) / 2, int64(len(data)) - 2}
	for _, at := range offsets {
		r := fault.NewReader(bytes.NewReader(data), fault.Plan{Err: boom, ErrAfter: at})
		if _, err := trace.Decode(r); err == nil {
			return "", Failf("error after %d bytes: decode succeeded", at)
		} else if !errors.Is(err, boom) {
			return "", Failf("error after %d bytes: cause lost: %v", at, err)
		}
	}
	return fmt.Sprintf("%d injection offsets: cause extractable, no panic", len(offsets)), nil
}

// chaosWriteFault writes through a failing writer: the first failure must
// surface and then stay sticky across further Put and Close calls.
func chaosWriteFault(_ Options, refs []trace.Ref, _ []byte) (string, error) {
	boom := errors.New("chaos: injected write failure")
	w, err := trace.NewWriter(fault.NewWriter(io.Discard, fault.Plan{Err: boom, ErrAfter: 256}))
	if err != nil {
		// The header itself fits the budget; construction must succeed.
		return "", Failf("NewWriter failed: %v", err)
	}
	var first error
	for _, r := range refs {
		if first = w.Put(r); first != nil {
			break
		}
	}
	if first == nil {
		first = w.Close()
	}
	if !errors.Is(first, boom) {
		return "", Failf("injected write failure not surfaced: %v", first)
	}
	if again := w.Put(trace.Ref{Addr: 4, Kind: trace.IFetch}); again != first {
		return "", Failf("Put after failure = %v, want sticky %v", again, first)
	}
	if again := w.Close(); again != first {
		return "", Failf("Close after failure = %v, want sticky %v", again, first)
	}
	return fmt.Sprintf("write fault surfaced once and stayed sticky"), nil
}

// chaosOverBudget verifies the store's hard-budget contract: with a budget
// no trace form fits, the runs tier fails typed — directly and through the
// InstrCtx adapter — and Acquire steps down to checkpointed regeneration,
// whose runs expand to exactly the refs InstrTrace generates.
func chaosOverBudget(opt Options) (string, error) {
	prof, seed := opt.Workloads[0], opt.Seed
	const n = 5000
	store := synth.NewStoreLimits(0, 64) // below even the columnar file's header and index
	defer store.Purge()
	ctx := context.Background()
	if _, _, err := store.InstrCtx(ctx, prof, seed, n); !errors.Is(err, synth.ErrOverBudget) {
		return "", Failf("InstrCtx over budget = %v, want ErrOverBudget", err)
	}
	if _, _, err := store.RunsOnly(ctx, prof, seed, n); !errors.Is(err, synth.ErrOverBudget) {
		return "", Failf("RunsOnly over budget = %v, want ErrOverBudget", err)
	}
	src, tier, release, err := store.Acquire(ctx, prof, seed, n)
	if err != nil {
		return "", Failf("Acquire over budget failed: %v", err)
	}
	var got []trace.Ref
	err = src.ReadRuns(0, math.MaxInt64, func(runs []trace.Run) error {
		for _, r := range runs {
			got = r.AppendRefs(got)
		}
		return nil
	})
	release()
	if tier != synth.TierSeek {
		return "", Failf("Acquire over budget served the %v tier, want seek", tier)
	}
	if err != nil {
		return "", Failf("seek tier errored: %v", err)
	}
	want, err := synth.InstrTrace(prof, seed, n)
	if err != nil {
		return "", Failf("reference generation failed: %v", err)
	}
	if len(got) != len(want) {
		return "", Failf("seek tier streamed %d refs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return "", Failf("seek tier ref %d differs from InstrTrace", i)
		}
	}
	if st := store.Stats(); st.Entries != 0 || st.SpillBytes != 0 {
		return "", Failf("over-budget acquisitions left %d entries, %d spill bytes", st.Entries, st.SpillBytes)
	}
	return fmt.Sprintf("RAM tiers fail typed, Acquire's seek tier streams %d identical refs", len(want)), nil
}

// chaosWorkerPanic proves a panicking experiment worker is isolated into a
// typed, attributed *WorkerError instead of crashing the run.
func chaosWorkerPanic(opt Options) (string, error) {
	err := experiments.PanicIsolationSelfTest(experiments.Options{Instructions: 1000, Seed: opt.Seed})
	if err == nil {
		return "", Failf("injected panic vanished")
	}
	var we *experiments.WorkerError
	if !errors.As(err, &we) {
		return "", Failf("panic surfaced untyped: %v", err)
	}
	if we.Workload == "" || we.Stack == "" {
		return "", Failf("WorkerError missing attribution: %+v", we)
	}
	return fmt.Sprintf("panic isolated as WorkerError for %q", we.Workload), nil
}

// memSeeker is an in-memory io.WriteSeeker for building counted trace
// fixtures.
type memSeeker struct {
	buf []byte
	pos int64
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if need := m.pos + int64(len(p)); need > int64(len(m.buf)) {
		grown := make([]byte, need)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[m.pos:], p)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memSeeker) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		m.pos = offset
	case io.SeekCurrent:
		m.pos += offset
	case io.SeekEnd:
		m.pos = int64(len(m.buf)) + offset
	default:
		return 0, fmt.Errorf("memSeeker: bad whence %d", whence)
	}
	if m.pos < 0 {
		return 0, fmt.Errorf("memSeeker: negative position")
	}
	return m.pos, nil
}
