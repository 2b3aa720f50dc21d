#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source inside
# the checkout (build cache, temp files and scratch all under .bench_build/)
# and runs one workload in one fresh process:
#
#   bash benchmark/run.sh --workload batch-inram --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build/metaprep-bench"
mkdir -p "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local CGO_ENABLED=0 TMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
