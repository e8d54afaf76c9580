#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload field-steady --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build and module caches, temporary files,
# the binary) stays under .bench_build in the current directory. The binary is built
# with the repository's PGO profile (engine.pgo) when one is present.
set -euo pipefail

top=$(pwd)
out="$top/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

pgo=off
if [ -f "$top/engine.pgo" ]; then
	pgo="$top/engine.pgo"
fi
(cd "$top/perfbench" && go build -pgo="$pgo" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
