#!/usr/bin/env bash
# Builds the benchmark and cmd/tracecheck from the sources of the
# checkout this script sits in, then runs the benchmark with the given
# arguments from the checkout root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache and scratch file stays under
# <checkout>/.bench_build, so the run reads and writes nothing outside
# the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

cd "$here"
go build -o "$out/perfbench" .
go build -o "$out/tracecheck" dirsim/cmd/tracecheck

cd "$root"
exec "$out/perfbench" -work "$out" -tracecheck "$out/tracecheck" "$@"
