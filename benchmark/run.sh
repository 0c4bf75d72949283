#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# everything the build writes (binary, Go build cache, temporary files)
# inside the checkout's .bench_build directory. Arguments go to the
# benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
