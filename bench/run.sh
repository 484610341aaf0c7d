#!/usr/bin/env bash
# Builds the host-performance benchmark from this checkout and runs it with
# the given arguments. Run from the repository root, for example:
#
#   bash bench/run.sh --workload hacc-tapioca --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files,
# toolchain telemetry, the binary) stays under .bench_build/ in the checkout.
# The benchmark needs no module downloads, so the module proxy is off.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/tapioca-bench" .
exec "$out/tapioca-bench" "$@"
