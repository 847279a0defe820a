#!/usr/bin/env bash
# One pass of one workload: builds the benchmark program from source (the
# first call in a checkout compiles everything, later calls hit the build
# cache) and runs it with the given arguments. This is BENCHMARK.json's
# command; see README.md.
#
#   bash bench/bench.sh --workload flat-full-10k --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Everything the toolchain writes stays inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$here" -buildvcs=false -o "$build/bench" .

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$build/bench" -out "$here/out" "$@"
