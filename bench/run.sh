#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from anywhere in the repository; see bench/README.md:
#
#   bash bench/run.sh -workload rank-small -seed 1 -seconds 15 -trace 0
#
# The binary, the Go build cache and temporary files, the go tool's own
# state, scratch graph files and traces all stay in .bench_build/ at the
# repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/hipa-bench" .)
cd "$root"
exec "$out/hipa-bench" -out "$out" "$@"
