#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload bulk-stream --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# touch stays inside the checkout: the Go build cache, temporary files
# and the binary go to .bench_build/, span traces to .bench_out/.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOENV=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
