#!/usr/bin/env bash
# Builds the end-to-end benchmark and harmonyd from this checkout's
# sources, then runs one workload:
#
#   bash e2ebench/run.sh --workload cbs-headline --seed 42 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, span
# files, the saved characterization) stays under .bench_build/ at the
# checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/run"

# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all go under .bench_build too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .) >&2
(cd "$root" && go build -o "$build/bin/harmonyd" ./cmd/harmonyd) >&2

exec "$build/bin/e2ebench" -root "$root" -harmonyd "$build/bin/harmonyd" "$@"
