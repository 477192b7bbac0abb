#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-frames --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# the build directory ($CARGO_TARGET_DIR if set, else .bench_build), including
# the Go build cache, so a fresh checkout builds from scratch.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
