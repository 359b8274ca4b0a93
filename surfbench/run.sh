#!/usr/bin/env bash
# Build surfbench from source inside the checkout and run it with the given
# arguments, e.g.
#
#   bash surfbench/run.sh --workload service-light --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache and binary live under
# .bench_build/, so nothing is read or written outside the checkout; the
# module has no dependencies beyond the repository itself, so nothing is
# fetched either.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/surfbench" build -o "$build/bin/surfbench" .
exec "$build/bin/surfbench" "$@"
