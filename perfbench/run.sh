#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload yago-imdb --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOTOOLCHAIN=local \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS= \
		go build -buildvcs=false -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
