#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#	bash perfbench/run.sh --workload pca-ward --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products (the Go build cache, the
# binary) and everything a run writes stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -workdir "$build" "$@"
