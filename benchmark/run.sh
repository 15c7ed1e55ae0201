#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (Go build cache + binary) and benchmark/out/ (journals, traces).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$root/.bench_build/safehome-benchmark" .
exec "$root/.bench_build/safehome-benchmark" "$@"
