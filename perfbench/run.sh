#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) and everything a
# run writes (result files, span dumps) stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
