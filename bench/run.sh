#!/usr/bin/env bash
# Builds pvbench from this checkout's sources and runs one workload:
#
#   bash bench/run.sh --workload run-pv8 --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, temporary files (the service's
# data directory among them), the binary, and a traced run's spans.json and
# CPU profiles under .bench_build/trace/. The first run fills the build cache
# and takes a few minutes; later runs rebuild nothing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/pvbench" ./cmd/pvbench)
exec "$build/pvbench" --trace-dir "$build/trace" "$@"
