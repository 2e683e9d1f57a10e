#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 15 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
