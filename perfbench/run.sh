#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload stream-scan --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -parent DIR -change DIR
# Run it from the repository root. Every file the build and the run leave
# behind goes under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
