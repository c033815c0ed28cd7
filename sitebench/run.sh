#!/usr/bin/env bash
# Builds the site benchmark from the checkout's sources and runs it.
#
#   bash sitebench/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, server data directories, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go toolchain's cache, module path and user config (telemetry counters)
# are pointed into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/sitebench" build -o "$out/sitebench" . >&2
exec "$out/sitebench" "$@"
