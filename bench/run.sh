#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind (binary, Go build cache, toolchain config) stays in
# .bench_build/ at the root of the checkout; run output goes to
# bench/out/. Arguments are passed to the benchmark unchanged.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$here"
go build -o "$build/fmeter-e2e" .
exec "$build/fmeter-e2e" "$@"
