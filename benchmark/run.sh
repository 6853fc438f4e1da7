#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, the
# binary) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/benchmark" && go build -o "$out/htp-benchmark" .)
exec "$out/htp-benchmark" "$@"
