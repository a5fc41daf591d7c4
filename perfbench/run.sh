#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload select-exact --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' spans are written
# under .bench_build/ in the repository root and nowhere else.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the servers under test are built from its go.mod" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/go-mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
