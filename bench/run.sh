#!/usr/bin/env bash
# BENCHMARK.json's command: builds ./bench from the checkout's sources and
# runs it with the arguments given. Everything the toolchain writes — its
# build cache and the binary — stays in .bench_build/ inside the checkout.
# Without the repository's sources beside bench/ the build, and so this
# script, fails.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
