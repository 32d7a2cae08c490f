#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments: bash benchmark/run.sh --workload q3_local --seed 1 --seconds 8 --trace 0
# Everything the build writes stays under .bench_build at the root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/ivmbench" ./benchmark
exec "$build/ivmbench" "$@"
