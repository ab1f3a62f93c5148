#!/usr/bin/env bash
# Builds plbench from source and runs it with the given arguments. Run it
# from the repository root, e.g.
#
#   bash bench/run.sh --workload clique-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, Go
# telemetry, temp files, span traces) stays under the build directory
# inside the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$build/plbench" .
exec "$build/plbench" -build-dir "$build" "$@"
