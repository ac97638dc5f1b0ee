#!/usr/bin/env bash
# Builds the ibsbench command from this checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash ibsbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/ibsbench" && go build -o "$build/bin/ibsbench" .)
exec "$build/bin/ibsbench" "$@"
