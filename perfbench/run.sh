#!/usr/bin/env bash
# Builds perfbench from source and runs it; run from the repository root:
#
#   bash perfbench/run.sh --workload dense5 --seed 0 --seconds 35 --trace 0
#
# The binary and the Go build cache stay under .bench_build/ in the current
# directory, so repeated runs reuse the build and nothing is written outside.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
