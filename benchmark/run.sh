#!/usr/bin/env bash
# Builds donorsense and the benchmark from source, then runs the benchmark
# with the given arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's work files all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off

# Both builds must succeed before anything runs: outside a full checkout
# (no go.mod or internal/ beside this directory) the script fails here
# without printing a result.
go build -o "$out/bin/donorsense" ./cmd/donorsense >&2
(cd benchmark && go build -o "$out/bin/benchmark" .) >&2

exec "$out/bin/benchmark" -bin "$out/bin/donorsense" -work "$out" "$@"
