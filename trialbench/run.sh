#!/usr/bin/env bash
# Builds the trial benchmark from source and runs it. Run from the root of
# the repository:
#
#	bash trialbench/run.sh --workload sweep-n2 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's records (spans, CPU
# profiles, per-seed deterministic counts) all stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C trialbench -o "$out/trialbench.bin" .
exec "$out/trialbench.bin" "$@"
