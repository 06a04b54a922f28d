#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload os-accel --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, scratch stores, span logs) goes under
# .bench_build/perfbench, so nothing is read or written outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"
