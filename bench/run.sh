#!/usr/bin/env bash
# The benchmark's build file: builds ./bench from the checkout's sources
# into .bench_build/ (the compiler cache too, so nothing is written outside
# the checkout) and runs it with the arguments given. BENCHMARK.json names
# this script as the command; `go run ./bench` does the same for a person
# at a terminal.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

go build -o "$build/graphdim-bench" ./bench
exec "$build/graphdim-bench" "$@"
