#!/usr/bin/env bash
# Builds the ledger benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the checkout
# root:
#
#   bash ledgerbench/run.sh --workload chain-small --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories
# all live under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

# The go command's caches, temporary files and per-user state (module
# cache, telemetry) all stay under $out.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/home/go
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" --work "$out" "$@"
