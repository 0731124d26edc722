#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root, for example:
#
#   bash mlbench/bench.sh --workload bisect-large --seed 1997 --seconds 20 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root,
# so the benchmark writes nothing outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C mlbench build -o "$build/mlbench" .
exec "$build/mlbench" --workdir "$build" "$@"
