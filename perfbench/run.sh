#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload linreg-wide --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build output, the Go build cache and
# the Go tool's own config files stay under .bench_build/ in the current
# directory; run records go to .bench_out/.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
