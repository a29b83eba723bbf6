#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root. Build outputs,
# the Go build cache and the run's reports stay under .bench_build/.
#
#   bash aptqbench/run.sh --workload decode-heavy --seed 1 --seconds 25 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# Keep the go command's cache, temporary files and config/telemetry
# writes inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off
go -C aptqbench build -o "$build/aptqbench-bin" .
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
APTQBENCH_COMMIT="$commit" exec "$build/aptqbench-bin" "$@"
