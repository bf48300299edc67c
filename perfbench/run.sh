#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload <batch_kbc|serve_mixed|lf_dev> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build output, cache and temporary
# file stays under .bench_build/ in that directory; the disk engine's
# spill directories go to a per-run temporary directory there, removed
# when the run ends.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .

tmp=$(mktemp -d "$out/run.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
TMPDIR="$tmp" "$out/perfbench" "$@"
