#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments (--workload W --seed N --seconds S --trace 0|1).  Run
# from the repository root.  Every build artifact, cache and scratch
# file stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# DHPF_NO_PLUGIN guards the rule that no run builds a codegen plugin.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CACHE_HOME="$build/cache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off DHPF_NO_PLUGIN=1

go build -C perfbench -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
