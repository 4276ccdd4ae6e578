#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it. Everything
# the Go toolchain writes (build cache, temporary files, the binary) stays
# under .bench_build, so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -o "$out/rcuda-bench" ./bench
exec "$out/rcuda-bench" "$@"
