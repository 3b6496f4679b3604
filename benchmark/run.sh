#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: run from the root of a checkout as
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the go command and the benchmark write — build cache, built
# binaries, scratch stores — stays inside the checkout, under
# .bench_build/ and benchmark/out/. In a directory that holds only the
# benchmark (no module tycoon to build), `go run` fails and so does this.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
# XDG_CONFIG_HOME moves the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
  XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
exec go run -C "$here" . -root "$root" "$@"
