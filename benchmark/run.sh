#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given flags.
# Everything the Go toolchain and the benchmark write (build cache, temporary
# files, telemetry, ring files, sockets) stays under .bench_build/ in the
# checkout. The benchmark is a module of its own (benchmark/go.mod) that
# replaces the repository's module with "..", so in a directory without the
# repository's sources the build fails and this script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/shm"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
