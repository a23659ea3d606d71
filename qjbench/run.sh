#!/usr/bin/env bash
# Builds qjoind and the benchmark from this checkout into .bench_build/
# (build cache included, so nothing is written outside the checkout) and
# runs the benchmark with the given arguments, e.g.
#
#   bash qjbench/run.sh --workload plan-serve --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/qjoind" ./cmd/qjoind
(cd qjbench && go build -o "$out/qjbench" .)
exec "$out/qjbench" --qjoind "$out/qjoind" "$@"
