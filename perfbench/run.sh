#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) goes under .bench_build in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/go-cache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
