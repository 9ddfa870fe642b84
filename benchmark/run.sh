#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a Go module of
# its own, so that it is no part of the repository's build) and runs it.
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
