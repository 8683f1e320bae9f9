#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache, temporary files and tool state stay
# under .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
