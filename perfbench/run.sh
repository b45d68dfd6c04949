#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload serve-shift --seed 1 --seconds 36 --trace 0
# Run from the repository root. The build cache, the go command's own
# files, the binary and the benchmark's scratch files all stay under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --work "$out/perfbench-work" "$@"
