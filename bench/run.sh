#!/usr/bin/env bash
# run.sh builds the benchmark and the two daemons it drives, then runs it
# with the given arguments:
#
#   bash bench/run.sh --workload serve_stream --seed 1 --seconds 10 --trace 0
#
# Everything the build writes, the Go build cache and the toolchain's
# telemetry counters included, stays under .bench_build at the
# repository root. Outside a full checkout the build fails and the
# script exits nonzero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"

(cd "$root/bench" && go build -o "$out/bin/bench" .)
(cd "$root" && go build -o "$out/bin/" ./cmd/bpservd ./cmd/bprouter)
cd "$root"
exec "$out/bin/bench" -root "$root" -out "$out" "$@"
