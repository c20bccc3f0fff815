#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout and runs
# it from the checkout's root with the arguments given. BENCHMARK.json names
# this script as its command. Every directory the go tool writes to is put
# under .bench_build/, so the build neither needs $HOME nor leaves the checkout;
# there is nothing to download (GOPROXY=off).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
