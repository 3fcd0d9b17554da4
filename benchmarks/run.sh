#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given
# (BENCHMARK.json's command).
#
# Everything it writes stays inside this directory: the Go build cache,
# the binary, span dumps and (unless BENCH_DIR says otherwise) the
# temporary volumes all live under benchmarks/.bench_build/, which the
# root .gitignore names and the go tool skips.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$here/.bench_build
mkdir -p "$build/gotmp" "$build/tmp"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/gotmp
export GOTOOLCHAIN=local
export BENCH_DIR=${BENCH_DIR:-$build/tmp}

go build -C "$here" -buildvcs=false -o "$build/benchmarks" .
exec "$build/benchmarks" -out "$build/out" "$@"
