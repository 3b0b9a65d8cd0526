#!/usr/bin/env bash
# Builds the benchmark harness and runs it with the given arguments.
# Everything the go tool and the harness write stays under
# .bench_build/ in the repository root, which .gitignore names.
set -euo pipefail
started_ns=$(date +%s%N)
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/bin/qisabench" .
BENCH_STARTED_NS=$started_ns exec "$build/bin/qisabench" "$@"
