# ibsim — reproduction of "Instruction Fetching: Coping with Code Bloat"
# (ISCA 1995). Stdlib-only Go; see README.md.

GO ?= go

.PHONY: all build test test-short race check check-sampling bench-columnar bench-seek chaos crash cluster cluster-smoke serve bench microbench vet cover tables extensions calibration examples clean

all: build vet test race check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-certify the parallel experiment runners (includes the
# parallel-vs-serial differential test in internal/experiments).
race:
	$(GO) test -race -short ./...

# Simulator verification + benchmark regression: invariant checks,
# differential tests, and the pinned golden comparison. Writes
# BENCH_ibsim.json.
check: vet
	$(GO) run ./cmd/ibscheck -n 200000

# Sampled-simulation verification: CI95 calibration of the set- and
# time-sampled engines against exact sweeps, the warm-unbiasedness and
# cold-bias statistical properties, the sampled-vs-exact speedup gate, and
# the sampling property/engine tests under the race detector. (Flags must
# precede the stage name: the Go flag parser stops at the first positional.)
check-sampling:
	$(GO) run ./cmd/ibscheck -o "" -n 200000 sampling-bounds
	$(GO) test -race -run 'Sampl' ./internal/sampling ./internal/sweep \
		./internal/replay ./internal/check ./internal/server

# Columnar (IBSTRACE/v3) verification: the block-replay and block-sweep
# differentials (mmap + ReaderAt modes vs in-memory, bit-exact) plus the
# zero-copy replay benchmark gate — a trace 10x the store's hard RAM budget
# must replay from disk with flat RSS at near-parity throughput. (Flags must
# precede the stage name: the Go flag parser stops at the first positional.)
bench-columnar:
	$(GO) run ./cmd/ibscheck -o "" -n 200000 columnar-replay

# Checkpoint-seek verification: the seek-sampled differential (RunSeek /
# SampledSeek bit-identical to the run-materialized sampled paths), the
# parallel-spill byte-identity differential, and the seek-vs-stream speedup
# gate — a skip-mode sampled sweep at 1/16 window coverage on an over-budget
# store must beat full streaming regeneration by the pinned ratio. (Flags
# must precede the stage name: the Go flag parser stops at the first
# positional.)
bench-seek:
	$(GO) run ./cmd/ibscheck -o "" -n 200000 seek

# Seeded fault-injection (chaos) suite under the race detector: trace-codec
# corruption contracts, store budget fallback, checkpoint corruption
# (bit-flipped generator snapshots caught by CRC, seek self-heals by
# regeneration), worker panic isolation, the
# ibstables interrupt/resume test, the service admission/degradation tests,
# the in-process server chaos scenarios (slow-loris, cancellation,
# over-budget degradation, handler panic), and the cluster coordinator
# scenarios (worker kill mid-sweep, hung-worker hedging, corrupt partial,
# cache poisoning, all-workers-lost local fallback).
chaos:
	$(GO) test -race ./internal/fault ./internal/atomicio ./internal/manifest \
		./internal/server ./internal/server/client ./internal/cluster ./cmd/ibsimd
	$(GO) test -race -run 'Chaos|Robustness|Resilience|Worker|Salvage|Interrupt|Timeout|Stress|Checkpoint|Seek' \
		./internal/trace ./internal/check ./internal/experiments \
		./internal/synth ./cmd/ibstables
	$(GO) run -race ./cmd/ibscheck -faults -o ""

# Crash-consistency torture under the race detector: power-fail every
# persistence op (atomic artifact writes, columnar spill publication,
# cluster shard checkpoints, the result cache, the exhibit manifest) in
# three durability variants (lost / torn / flushed), verify every recovery,
# plus the corruption property tests seeded from crashfs images and the
# goroutine-leak brackets around server drain and coordinator shutdown.
# The negative control (TestCrashTortureCatchesUnsafeWriter) proves the
# harness itself catches unsafe writers.
crash:
	$(GO) test -race -run 'Crash|Leak' ./internal/crashfs ./internal/atomicio \
		./internal/manifest ./internal/cluster ./internal/synth \
		./internal/check ./internal/server
	$(GO) run -race ./cmd/ibscheck -faults -match '^chaos/crash-' -o ""

# Cluster scale-out demo: spawn 3 local ibsimd workers, run the same sweep
# through 1 worker and through the pool, verify the merged miss matrix is
# byte-identical, then serve the sweep again from the content-addressed
# result cache without touching a worker.
cluster:
	$(GO) run ./cmd/ibsctl -mode demo -spawn 3

# Cluster robustness smoke (the CI gate): 3 spawned workers, one killed
# abruptly mid-sweep. The sweep must survive via re-scatter, merge
# byte-identical to a single-process run, and the hot repeat must be a
# pure cache hit that scatters no shards.
cluster-smoke:
	$(GO) run ./cmd/ibsctl -mode smoke -spawn 3

# Run the simulation service on the default loopback address.
serve:
	$(GO) run ./cmd/ibsimd

# Benchmark-regression run: times the pinned stages plus the Figure 3+4
# sweep-vs-per-config and Tables 5-8 + Figures 6/7 fanout-vs-per-config
# comparisons and the columnar zero-copy replay gate at the golden scale,
# records wall-clock and speedups in BENCH_ibsim.json, and exits non-zero
# if any gated ratio regresses more than 20% against its recorded
# baseline. Also runs the bulk-replay microbenchmarks (trace compaction,
# per-ref vs FetchRun replay, columnar encode/decode), the Figure 5 cell
# on the per-reference loop vs the line-event kernel, the R2000 TLB over a
# recorded gcc stream, and one Table 1/3 DECstation 3100 row.
bench:
	$(GO) run ./cmd/ibscheck -bench-only -n 200000
	$(GO) test -run='^$$' -bench='CompactAppend|FetchPerRef|FetchRun|Columnar|Physical|TLBAccess|DECstationRow' -benchmem \
		./internal/trace ./internal/fetch ./internal/tlb ./internal/experiments

# Go microbenchmarks (cache hot path, sweep engine, generators).
microbench:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -cover ./...

# Regenerate every paper table and figure (EXPERIMENTS.md scale).
tables:
	$(GO) run ./cmd/ibstables -n 2000000 -trials 5

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

clean:
	$(GO) clean ./...
