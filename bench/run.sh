#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it with the given arguments. The Go build cache and temporary files
# stay inside the checkout too, so the benchmark writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
