#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build the driver, which
# is a module of its own in this directory, and run it from the checkout
# it measures. The driver builds sparqld itself. Everything the Go
# toolchain writes goes under .bench_build in the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
