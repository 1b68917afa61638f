#!/usr/bin/env bash
# Builds the picpredict benchmark from source and runs it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload sweep-bed --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs leave behind stays under .bench_build/
# at the checkout root (Go build cache, binary, per-run reports and spans).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

# The benchmark is its own module, so it builds against the program
# sources next to it and never touches the network or the user's caches.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
