#!/usr/bin/env bash
# Builds gph-server and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload range_unique_1m --seed 1 --seconds 10 --trace 0
#
# Build outputs, generated inputs and traces go under .bench_build/
# (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gph-server || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (need go.mod, cmd/gph-server and e2ebench/)" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

# Everything the toolchain writes stays in the checkout, and nothing is
# fetched: the module has no dependencies outside it.
mkdir -p "$out/gotmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/gotmp GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -o "$out/gph-server" ./cmd/gph-server
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -server "$out/gph-server" -work "$out/work" "$@"
