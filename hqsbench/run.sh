#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash hqsbench/run.sh --workload hqs_hard --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, store
# directories, results, spans) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/hqsbench" && go build -o "$build/hqsbench-bin" .)
exec "$build/hqsbench-bin" "$@"
