#!/usr/bin/env bash
# Builds perfbench and the flipcd daemon from the source tree in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload echo_daemon --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, span dumps and run records all go
# to .bench_build in the current directory; nothing is written outside
# it. A directory that is not a flipc source tree fails the build, and
# the script exits nonzero without a result line.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/flipcd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a flipc source tree" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/flipcd" ./cmd/flipcd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -flipcd "$out/flipcd" -out "$out" "$@"
