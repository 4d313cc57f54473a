#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the arguments given. Everything it writes (Go build
# cache, binary, result and span files) goes under .bench_build in the
# checkout. Run from anywhere:
#
#   bash benchmark/run.sh --workload lib-mixed-1m --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/pedal-benchmark" ./benchmark
exec "$build/pedal-benchmark" -artifacts "$build/artifacts" "$@"
