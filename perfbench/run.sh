#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the binary and the traced run's
# outputs all stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
