#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-fork --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# Keep the Go toolchain's caches, temporary files and configuration inside
# the build directory, and never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/work" "$@"
