#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from the checkout's
# sources and run it. Everything the build and the run write (Go build cache,
# the binary, journals, temp files) stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/gmsbench" .
exec "$build/gmsbench" "$@"
