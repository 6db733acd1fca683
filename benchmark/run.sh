#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	sh benchmark/run.sh --workload probe --seed 1 --seconds 30 --trace 0
#
# The build cache and the binary stay under .bench_build/ in the current
# directory; nothing is downloaded.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/benchmark" .)
# Measure the Go runtime's default garbage collector settings.
unset GOGC GOMEMLIMIT GODEBUG
exec "$out/benchmark" "$@"
