#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the go tool writes (build cache, binary) stays
# under .bench_build/, so a run reads and writes nothing outside the checkout
# and needs neither $HOME nor a network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/sstd-bench" ./bench
exec "$build/sstd-bench" "$@"
