#!/bin/bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then hand over to it with the driver's
# arguments. The Go build cache and temporary files are kept under
# .bench_build so that nothing is read or written outside the checkout.
# In a directory without the repository's go.mod the build fails, and so
# does this script, before anything is printed on standard output.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp"
go build -o "$out/benchmark" ./benchmark 1>&2
exec "$out/benchmark" "$@"
