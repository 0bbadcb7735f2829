#!/bin/bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash bench/run.sh --workload fanout_closed --seed 1 --seconds 20 --trace 0
# Everything the build writes (compiler cache, temporaries, the binary) stays
# inside the checkout, under .bench_build/.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/cnbench" .)
exec "$build/cnbench" "$@"
