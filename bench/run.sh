#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# checkout root. Everything the build writes (Go build cache included) stays
# inside the checkout. Arguments are passed through to the benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/spacejmp-bench" .
cd "$root"
exec "$build/spacejmp-bench" "$@"
