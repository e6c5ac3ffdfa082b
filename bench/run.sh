#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see bench/README.md):
#
#   bash bench/run.sh -seed 1                  # all four workloads
#   bash bench/run.sh --workload lu-sc --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# so that nothing is written outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/latsim-bench" .
exec "$build/latsim-bench" "$@"
