#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload plan-wide --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache, temporary
# files, the toolchain's user configuration and telemetry) stays under
# .bench_build in the checkout, and nothing is fetched. The build resolves
# the planner module from the checkout's root (see perfbench/go.mod), so it
# fails, and the script exits non-zero, where the planner sources are absent.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
