#!/bin/bash
# Builds the benchmark harness and cmd/disthd-serve from the checkout's
# sources into .bench_build, then runs the harness with the arguments given.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload tenants --seed 1 --seconds 40 --trace 0
#
# Everything it writes stays under .bench_build, the Go build cache too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -o "$out/disthd-serve" ./cmd/disthd-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/disthd-serve" -work "$out" "$@"
