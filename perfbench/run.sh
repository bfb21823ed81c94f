#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
# Every build and run artefact stays under the checkout's .bench_build
# directory (or $CARGO_TARGET_DIR when set).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
