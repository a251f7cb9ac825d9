#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (a Go module of its
# own, so the repo's build files stay untouched) and runs it from the checkout
# root. Every byte the toolchain writes — build cache, temp files, module
# cache, telemetry — is redirected under .bench_build/ so a run reads and
# writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off
cd "$root"
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
