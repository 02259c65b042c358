#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload exchange-remote --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build" "$@"
