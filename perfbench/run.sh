#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload admit-100k --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file the run writes stay
# inside the checkout: the build goes to $CARGO_TARGET_DIR (default
# .bench_build), records and span traces to .bench_out.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" -out "$root/.bench_out" "$@"
