#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span files, server data directories) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
