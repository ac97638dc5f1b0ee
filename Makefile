# ibsim — reproduction of "Instruction Fetching: Coping with Code Bloat"
# (ISCA 1995). Stdlib-only Go; see README.md.

GO ?= go

.PHONY: all build test test-short race fuzz check check-sampling check-columnar check-seek chaos crash serve bench microbench vet cover tables scale extensions calibration examples loc clean

all: build vet test race check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Fuzz the trace codecs: each fuzz target in internal/trace (header, reader,
# decode, salvage and round trip of the record format; round trip and
# salvage of the columnar format) for 5 s, one after another.
fuzz:
	@for t in $$($(GO) test -list '^Fuzz' ./internal/trace | grep '^Fuzz'); do \
		echo "== $$t"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 5s ./internal/trace || exit 1; \
	done

# Race-certify the parallel experiment runners (includes the
# parallel-vs-serial differential test in internal/experiments).
race:
	$(GO) test -race -short ./...

# Simulator verification + benchmark regression: invariant checks,
# differential tests, and the pinned golden comparison. Writes
# BENCH_ibsim.json. Every check runs panic-isolated; ibscheck -match REGEXP
# runs only the checks whose names match, without the bench stages, as the
# focused targets below do.
check: vet
	$(GO) run ./cmd/ibscheck -n 200000

# Sampled-simulation verification: CI95 calibration of the set- and
# time-sampled engines against exact sweeps (including the full 1-64KB grid's
# accuracy and CI-hit floors), the warm-unbiasedness and cold-bias
# statistical properties, and the sampling property/engine tests under the
# race detector.
check-sampling:
	$(GO) run ./cmd/ibscheck -o "" -n 200000 -match '^sampling/'
	$(GO) test -race -run 'Sampl' ./internal/sampling ./internal/sweep \
		./internal/replay ./internal/check ./internal/server

# Columnar (IBSTRACE/v3) verification: the block-replay, block-parallel and
# block-sweep differentials — the one replay driver and the one sweep kernel
# over the mmap and ReaderAt access modes and the in-memory runs, each
# bit-exact against the []Ref oracle. A subset of `make check`, for focused
# runs.
check-columnar:
	$(GO) run ./cmd/ibscheck -o "" -n 200000 -match '^differential/(columnar|blocks)'

# Checkpoint-seek verification: the seek-sampled differential (RunSeek /
# SampledSeek bit-identical to the in-memory sampled paths and the []Ref
# oracle). A subset of `make check`, for focused runs.
check-seek:
	$(GO) run ./cmd/ibscheck -o "" -n 200000 -match '^differential/seek'

# Seeded fault-injection (chaos) suite under the race detector: trace-codec
# corruption contracts, store budget fallback, checkpointed seeks,
# worker panic isolation, the
# ibstables interrupt/resume test, the service admission/degradation tests,
# and the in-process server chaos scenarios (slow-loris, cancellation,
# over-budget degradation, handler panic).
chaos:
	$(GO) test -race ./internal/fault ./internal/atomicio ./internal/manifest \
		./internal/server ./cmd/ibsimd
	$(GO) test -race -run 'Chaos|Robustness|Resilience|Worker|Salvage|Interrupt|Timeout|Stress|Checkpoint|Seek' \
		./internal/trace ./internal/check ./internal/experiments \
		./internal/synth ./cmd/ibstables
	$(GO) run -race ./cmd/ibscheck -faults -o ""

# Crash-consistency torture under the race detector: power-fail every
# persistence op (atomic artifact writes, columnar spill publication, the
# exhibit manifest) in three durability variants (lost / torn / flushed),
# verify every recovery, plus the corruption property tests seeded from
# crashfs images and the goroutine-leak bracket around server drain. The
# negative control (TestCrashTortureCatchesUnsafeWriter) proves the harness
# itself catches unsafe writers.
crash:
	$(GO) test -race -run 'Crash|Leak' ./internal/crashfs ./internal/atomicio \
		./internal/manifest ./internal/synth \
		./internal/check ./internal/server
	$(GO) run -race ./cmd/ibscheck -faults -match '^chaos/crash-' -o ""

# Run the simulation service on the default loopback address.
serve:
	$(GO) run ./cmd/ibsimd

# Benchmark-regression run: times the pinned stages at the golden scale,
# compares their CPI/MPI against the committed goldens, and records the
# wall-clock in BENCH_ibsim.json. Also runs the bulk-replay microbenchmarks
# (trace compaction, per-ref vs FetchRuns replay, columnar encode/decode), the
# Figure 5 cell on the per-reference loop vs the line-event kernel, the R2000
# TLB over a recorded gcc stream, one Table 1/3 DECstation 3100 row, the
# generator per instruction with and without data references, a cold
# RunsOnly of 1M gcc instructions on a fresh store (the generate-and-compact
# work behind both benchmark workloads' set-up), the fused
# access of Figure 5's line events against the Touch/Access/Touch sequence
# it replaced, the Table 8 and serve-hot replay banks over a 1M-instruction
# workload, the serve-hot sweep grid over the same workload from references
# (compacting on every pass) and from runs compacted once, exact and under
# each sampling schedule ibsimd serves, and the Figure 3 grid.
# Layer-by-layer timings with noise estimates come from the benchmark's
# ledger: bash ibsbench/run.sh --workload serve-hot --seconds 10 --trace 1.
bench:
	$(GO) run ./cmd/ibscheck -bench-only -n 200000
	$(GO) test -run='^$$' -bench='CompactAppend|FetchPerRef|FetchRun|Columnar|Physical|TLBAccess|DECstationRow|GeneratorNext|StoreRunsOnlyFill|AccessN|ReplayBank|SweepServeGrid|SweepFigure3Grid' -benchmem \
		./internal/trace ./internal/fetch ./internal/tlb ./internal/experiments ./internal/synth ./internal/cache ./internal/replay ./internal/sweep

# Go microbenchmarks (cache hot path, sweep engine, generators).
microbench:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -cover ./...

# Regenerate every paper table and figure (EXPERIMENTS.md scale).
tables:
	$(GO) run ./cmd/ibstables -n 2000000 -trials 5

# Every paper exhibit at the paper's trace length, 25M instructions per
# workload (EXPERIMENTS.md, "Paper scale": about 2.5 GiB peak RSS).
scale:
	$(GO) run ./cmd/ibstables -n 25000000 -q

# The beyond-the-paper extension/ablation/methodology studies.
extensions:
	$(GO) run ./cmd/ibstables -extensions -n 1000000

# Workload-model calibration report against the paper's published values.
calibration:
	$(GO) run ./cmd/ibscal -n 2000000 -sizes -cpi

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/codebloat
	$(GO) run ./examples/fetchtuning
	$(GO) run ./examples/tracefiles
	$(GO) run ./examples/futurework

# Go line counts, non-test and test, outside the benchmark's own module
# and its build directory: the measure simplicity changes report.
loc:
	@printf 'non-test %s\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './ibsbench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)
	@printf 'test     %s\n' $$(find . -name '*_test.go' ! -path './ibsbench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)

clean:
	$(GO) clean ./...
