#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the Go toolchain writes — the
# binary, its build cache, temporaries, its telemetry counters — stays
# under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$build/bench" . >&2
exec "$build/bench" "$@"
