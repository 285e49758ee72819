#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root. Every build and run artifact stays under
# .bench_build/, so the benchmark reads and writes only the checkout.
#
#   bash perfbench/run.sh --workload online-1x --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
