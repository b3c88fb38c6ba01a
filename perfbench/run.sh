#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload bursty_serve --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span logs of traced runs all stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
