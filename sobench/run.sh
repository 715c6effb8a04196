#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash sobench/run.sh --workload suite_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, the
# runs' scratch stores and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/sobench" && go build -o "$out/sobench" .)
exec "$out/sobench" "$@"
