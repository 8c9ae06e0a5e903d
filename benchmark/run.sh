#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything a build or a run writes goes under benchmark/out/ in the
# checkout: compiler cache and binary under .build/, database files and
# traces beside it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a dkbms checkout" >&2
	exit 2
fi
build=$PWD/benchmark/out/.build
mkdir -p "$build"
# Keep the toolchain's own files inside the checkout too: build cache,
# module path and the telemetry counters it keeps under the config dir.
export GOCACHE=$build/go-cache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
go build -o "$build/dkbms-benchmark" ./benchmark
exec "$build/dkbms-benchmark" "$@"
