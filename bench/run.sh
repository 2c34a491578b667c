#!/usr/bin/env bash
# Builds the lossycorr benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   bash bench/run.sh --workload analyze-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every temporary file (including the
# service's upload spool) stay under .bench_build/ in the checkout; the
# build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/bench" build -o "$out/lossycorr-bench" .
exec "$out/lossycorr-bench" "$@"
