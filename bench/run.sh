#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it with
# the given arguments. Run it from the repository root, for example
#
#   bash bench/run.sh --workload table7 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay under
# .bench_build/ in the current directory, so the first run compiles
# everything (a minute or two) and later runs only relink what changed.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/plasticine-bench" ./cmd/plasticine-bench
exec "$out/plasticine-bench" "$@"
