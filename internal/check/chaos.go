package check

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"

	"ibsim/internal/experiments"
	"ibsim/internal/fault"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// RunChaos is the deterministic fault-injection suite (ibscheck -faults):
// each scenario perturbs an I/O or execution path with seeded faults and
// asserts the robustness contract — a typed error (ErrCorrupt/ErrTruncated,
// an extractable injected cause, ErrOverBudget, *WorkerError), never a panic
// and never a silently wrong result. Scenarios run inside a recover wrapper,
// so even a regression that reintroduces a panic is reported as an ordinary
// failing Result.
func RunChaos(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	prof := opt.Workloads[0]
	refs, err := synth.InstrTrace(prof, opt.Seed, 20_000)
	if err != nil {
		return nil, fmt.Errorf("chaos: generating fixture trace: %w", err)
	}
	var sb memSeeker
	if _, err := trace.EncodeSeeker(&sb, trace.NewSliceSource(refs)); err != nil {
		return nil, fmt.Errorf("chaos: encoding fixture trace: %w", err)
	}
	data := sb.buf

	scenarios := []struct {
		name string
		fn   func() Result
	}{
		{"chaos/truncation", func() Result { return chaosTruncation(refs, data) }},
		{"chaos/bit-flip", func() Result { return chaosBitFlip(refs, data, opt.Seed) }},
		{"chaos/short-read", func() Result { return chaosShortRead(refs, data, opt.Seed) }},
		{"chaos/error-after-n", func() Result { return chaosErrAfter(data) }},
		{"chaos/columnar-salvage", func() Result { return chaosColumnarSalvage(refs) }},
		{"chaos/write-fault-sticky", func() Result { return chaosWriteFault(refs) }},
		{"chaos/over-budget-store", func() Result { return chaosOverBudget(prof, opt.Seed) }},
		{"chaos/checkpoint-corrupt", func() Result { return chaosCheckpointCorrupt(prof, opt.Seed) }},
		{"chaos/worker-panic", func() Result { return chaosWorkerPanic(opt) }},
		{"chaos/server-slow-loris", func() Result { return chaosServerSlowLoris(prof, opt.Seed) }},
		{"chaos/server-cancel", func() Result { return chaosServerCancel(prof, opt.Seed) }},
		{"chaos/server-over-budget", func() Result { return chaosServerOverBudget(prof, opt.Seed) }},
		{"chaos/server-runs-tier", func() Result { return chaosServerRunsTier(prof, opt.Seed) }},
		{"chaos/server-panic", func() Result { return chaosServerPanic(prof, opt.Seed) }},
		{"chaos/crash-atomicio", chaosCrashAtomicio},
		{"chaos/crash-manifest", chaosCrashManifest},
		{"chaos/crash-spill", func() Result { return chaosCrashSpill(prof, opt.Seed) }},
	}
	var filter *regexp.Regexp
	if opt.ChaosFilter != "" {
		var err error
		if filter, err = regexp.Compile(opt.ChaosFilter); err != nil {
			return nil, fmt.Errorf("chaos: bad scenario filter %q: %w", opt.ChaosFilter, err)
		}
	}
	out := make([]Result, 0, len(scenarios))
	for _, s := range scenarios {
		if filter != nil && !filter.MatchString(s.name) {
			continue
		}
		out = append(out, runIsolated(s.name, s.fn))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaos: no scenario matches %q", opt.ChaosFilter)
	}
	return out, nil
}

// runIsolated times fn and converts a scenario panic into a failing Result.
func runIsolated(name string, fn func() Result) Result {
	return timed(func() (r Result) {
		defer func() {
			if rec := recover(); rec != nil {
				r = fail(name, "scenario panicked: %v", rec)
			}
		}()
		return fn()
	})
}

// typedDecodeErr reports whether err carries the decoder's typed contract.
func typedDecodeErr(err error) bool {
	return errors.Is(err, trace.ErrCorrupt) || errors.Is(err, trace.ErrTruncated)
}

// chaosTruncation cuts the encoded trace at assorted points: Decode must
// fail typed, and DecodeSalvage must recover exactly a prefix with the
// partial flag set.
func chaosTruncation(refs []trace.Ref, data []byte) Result {
	const name = "chaos/truncation"
	cuts := []int{0, 7, 20, 21, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		mut := fault.Truncate(data, int64(cut))
		if _, err := trace.Decode(bytes.NewReader(mut)); err == nil {
			return fail(name, "cut at %d decoded without error", cut)
		}
		got, complete, err := trace.DecodeSalvage(bytes.NewReader(mut))
		if complete {
			return fail(name, "cut at %d salvaged as complete", cut)
		}
		if cut >= 20 && !typedDecodeErr(err) {
			return fail(name, "cut at %d: untyped salvage error %v", cut, err)
		}
		if len(got) > len(refs) {
			return fail(name, "cut at %d salvaged %d refs from a %d-ref trace", cut, len(got), len(refs))
		}
		for i := range got {
			if got[i] != refs[i] {
				return fail(name, "cut at %d: salvaged ref %d is not a prefix", cut, i)
			}
		}
	}
	return pass(name, "%d cut points: typed errors, exact-prefix salvage", len(cuts))
}

// chaosBitFlip flips seeded bits in the record body and trailer: every
// corrupted stream either fails typed or decodes to the exact original.
func chaosBitFlip(refs []trace.Ref, data []byte, seed uint64) Result {
	const name = "chaos/bit-flip"
	const trials = 64
	rng := xrand.New(seed ^ 0xb17f11b5)
	caught := 0
	for trial := 0; trial < trials; trial++ {
		// Corrupt payload bytes only; header corruption is FuzzHeader's job.
		flipped := fault.FlipBits(data[20:], rng.Uint64(), 1+int(rng.Uint64n(3)))
		mut := append(append([]byte(nil), data[:20]...), flipped...)
		got, err := trace.Decode(bytes.NewReader(mut))
		if err != nil {
			if !typedDecodeErr(err) {
				return fail(name, "trial %d: untyped error %v", trial, err)
			}
			caught++
			continue
		}
		if len(got) != len(refs) {
			return fail(name, "trial %d: silent wrong count %d", trial, len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				return fail(name, "trial %d: silent wrong ref %d", trial, i)
			}
		}
	}
	if caught == 0 {
		return fail(name, "no corruption detected across %d trials", trials)
	}
	return pass(name, "%d/%d seeded corruptions caught, rest decoded exactly", caught, trials)
}

// chaosShortRead decodes through a reader that delivers arbitrary short
// reads; the result must be identical to a direct decode.
func chaosShortRead(refs []trace.Ref, data []byte, seed uint64) Result {
	const name = "chaos/short-read"
	for trial := 0; trial < 8; trial++ {
		r := fault.NewReader(bytes.NewReader(data), fault.Plan{ShortIO: true, Seed: seed + uint64(trial)})
		got, err := trace.Decode(r)
		if err != nil {
			return fail(name, "trial %d: decode failed under short reads: %v", trial, err)
		}
		if len(got) != len(refs) {
			return fail(name, "trial %d: %d refs, want %d", trial, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				return fail(name, "trial %d: ref %d differs", trial, i)
			}
		}
	}
	return pass(name, "8 short-read schedules decoded identically")
}

// chaosErrAfter injects an I/O error after N bytes: the decode must fail
// with the injected cause still extractable via errors.Is.
func chaosErrAfter(data []byte) Result {
	const name = "chaos/error-after-n"
	boom := errors.New("chaos: injected disk failure")
	offsets := []int64{0, 5, 19, 20, 33, int64(len(data)) / 2, int64(len(data)) - 2}
	for _, at := range offsets {
		r := fault.NewReader(bytes.NewReader(data), fault.Plan{Err: boom, ErrAfter: at})
		if _, err := trace.Decode(r); err == nil {
			return fail(name, "error after %d bytes: decode succeeded", at)
		} else if !errors.Is(err, boom) {
			return fail(name, "error after %d bytes: cause lost: %v", at, err)
		}
	}
	return pass(name, "%d injection offsets: cause extractable, no panic", len(offsets))
}

// chaosWriteFault writes through a failing writer: the first failure must
// surface and then stay sticky across further Put and Close calls.
func chaosWriteFault(refs []trace.Ref) Result {
	const name = "chaos/write-fault-sticky"
	boom := errors.New("chaos: injected write failure")
	w, err := trace.NewWriter(fault.NewWriter(io.Discard, fault.Plan{Err: boom, ErrAfter: 256}))
	if err != nil {
		// The header itself fits the budget; construction must succeed.
		return fail(name, "NewWriter failed: %v", err)
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
		return fail(name, "injected write failure not surfaced: %v", first)
	}
	if again := w.Put(trace.Ref{Addr: 4, Kind: trace.IFetch}); again != first {
		return fail(name, "Put after failure = %v, want sticky %v", again, first)
	}
	if again := w.Close(); again != first {
		return fail(name, "Close after failure = %v, want sticky %v", again, first)
	}
	return pass(name, "write fault surfaced once and stayed sticky")
}

// chaosOverBudget verifies the store's hard-budget contract: with a budget
// no trace form fits, the RAM tiers fail typed and Acquire steps down to
// checkpointed regeneration, whose runs expand to exactly the refs the
// materialized path yields.
func chaosOverBudget(prof synth.Profile, seed uint64) Result {
	const name = "chaos/over-budget-store"
	const n = 5000
	store := synth.NewStoreLimits(0, 64) // below even the columnar file's header and index
	defer store.Purge()
	ctx := context.Background()
	if _, _, err := store.Instr(prof, seed, n); !errors.Is(err, synth.ErrOverBudget) {
		return fail(name, "Instr over budget = %v, want ErrOverBudget", err)
	}
	if _, _, err := store.RunsOnly(ctx, prof, seed, n); !errors.Is(err, synth.ErrOverBudget) {
		return fail(name, "RunsOnly over budget = %v, want ErrOverBudget", err)
	}
	src, tier, release, err := store.Acquire(ctx, prof, seed, n)
	if err != nil {
		return fail(name, "Acquire over budget failed: %v", err)
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
		return fail(name, "Acquire over budget served the %v tier, want seek", tier)
	}
	if err != nil {
		return fail(name, "seek tier errored: %v", err)
	}
	want, err := synth.InstrTrace(prof, seed, n)
	if err != nil {
		return fail(name, "reference generation failed: %v", err)
	}
	if len(got) != len(want) {
		return fail(name, "seek tier streamed %d refs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fail(name, "seek tier ref %d differs from materialized path", i)
		}
	}
	if st := store.Stats(); st.Entries != 0 || st.SpillBytes != 0 {
		return fail(name, "over-budget acquisitions left %d entries, %d spill bytes", st.Entries, st.SpillBytes)
	}
	return pass(name, "RAM tiers fail typed, Acquire's seek tier streams %d identical refs", len(want))
}

// chaosCheckpointCorrupt flips a bit in every checkpoint at or below a seek
// target: SeekTo must detect each corruption by CRC, drop the damaged
// checkpoint, and fall back — ultimately to a full regeneration from
// instruction zero — landing on exactly the references sequential
// generation yields. A damaged index degrades and self-heals (the fallback
// pass re-records the positions it dropped); it never fails a seek and
// never yields a wrong reference.
func chaosCheckpointCorrupt(prof synth.Profile, seed uint64) Result {
	const name = "chaos/checkpoint-corrupt"
	const (
		n      = int64(60_000)
		every  = int64(2048)
		target = int64(50_000)
		tail   = int64(128)
	)
	ix := synth.NewCheckpointIndex(every)
	src, err := synth.NewSeekSource(prof, seed, n, ix)
	if err != nil {
		return fail(name, "building seek source: %v", err)
	}
	refs := make([]trace.Ref, 0, n)
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	healthy := ix.Len()
	if healthy == 0 {
		return fail(name, "full generation pass recorded no checkpoints")
	}
	// Corrupt every checkpoint at or below the target. Nearest returns a
	// struct copy, but its Data slice shares the backing array with the
	// stored checkpoint, so the flip lands in the index.
	corrupted := 0
	for i := target; ; {
		ck, ok := ix.Nearest(i)
		if !ok {
			break
		}
		ck.Data[len(ck.Data)/2] ^= 0x10
		corrupted++
		if ck.Instr == 0 {
			break
		}
		i = ck.Instr - 1
	}
	if corrupted == 0 {
		return fail(name, "no checkpoints at or below instruction %d to corrupt", target)
	}
	if err := src.SeekTo(target); err != nil {
		return fail(name, "seek over a fully corrupt index errored: %v", err)
	}
	for k := int64(0); k < tail && target+k < n; k++ {
		got, ok := src.Next()
		if !ok {
			return fail(name, "source ended at instruction %d of %d after corrupt-index seek", target+k, n)
		}
		if got != refs[target+k] {
			return fail(name, "instruction %d after corrupt-index seek diverges from sequential generation", target+k)
		}
	}
	st := ix.Stats()
	if st.Corrupt != int64(corrupted) {
		return fail(name, "index counted %d corrupt checkpoints, %d were corrupted", st.Corrupt, corrupted)
	}
	if got := ix.Len(); got != healthy {
		return fail(name, "index holds %d checkpoints after the healing seek, want %d", got, healthy)
	}
	return pass(name, "%d/%d checkpoints corrupted: every CRC failure detected and dropped, seek fell back to instruction 0, %d-ref tail bit-identical, index self-healed",
		corrupted, healthy, tail)
}

// chaosWorkerPanic proves a panicking experiment worker is isolated into a
// typed, attributed *WorkerError instead of crashing the run.
func chaosWorkerPanic(opt Options) Result {
	const name = "chaos/worker-panic"
	err := experiments.PanicIsolationSelfTest(experiments.Options{Instructions: 1000, Seed: opt.Seed})
	if err == nil {
		return fail(name, "injected panic vanished")
	}
	var we *experiments.WorkerError
	if !errors.As(err, &we) {
		return fail(name, "panic surfaced untyped: %v", err)
	}
	if we.Workload == "" || we.Stack == "" {
		return fail(name, "WorkerError missing attribution: %+v", we)
	}
	return pass(name, "panic isolated as WorkerError for %q", we.Workload)
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
