#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# from the checkout root. All build output (Go build cache, binary,
# traces, temporary tuning DBs) stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
cd "$root"
exec "$build/perfbench" "$@"
