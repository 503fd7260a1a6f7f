#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload churn-maint --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact (Go caches, the binary, span files) stays in
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
