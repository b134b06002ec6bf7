#!/usr/bin/env bash
# Builds the benchmark and the server under test from source into
# .bench_build/ of the checkout and runs the benchmark with the given
# arguments. Everything the build and the run write stays under .bench_build/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTMPDIR=$build/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

# The benchmark is its own module; the server is a package of the module it
# replaces `adarnet` with (the checkout's root).
(
	cd "$here"
	go build -o "$build/bin/benchmark" . >&2
	go build -o "$build/bin/adarnet-serve" adarnet/cmd/adarnet-serve >&2
)

cd "$root"
exec "$build/bin/benchmark" -serve-bin "$build/bin/adarnet-serve" -workdir "$build/tmp" "$@"
