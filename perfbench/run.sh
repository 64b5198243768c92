#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload xgboost-mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind (binary, Go build cache,
# scratch run directories, traces) goes under .bench_build/ at the root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
