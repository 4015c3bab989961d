#!/usr/bin/env bash
# Builds the benchmark binary once into .bench_build/ (so compile time never
# lands in a metric) and runs it with the given arguments. Run from the
# repository root. The Go build cache and temp files stay inside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
