#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from the root. Everything the build writes, Go's build cache
# included, stays inside the checkout; the first build of a fresh
# checkout compiles the standard library too and takes about a minute.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
