#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary) goes
# under .bench_build/ in the repository root, and the Go toolchain is kept
# off the network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

go=$(command -v go || echo /usr/local/go/bin/go)
"$go" -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" --out "$build" "$@"
