#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash cmd/perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
# Everything the build writes (binary, Go build cache) stays in
# .bench_build at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_COMMIT
fi
go -C "$here" build -o "$build/bin/perfbench" .
cd "$root"
exec "$build/bin/perfbench" "$@"
