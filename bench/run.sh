#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it against the repository it
# sits in, passing every argument through:
#
#   bash bench/run.sh --workload churn --seed 1
#   bash bench/run.sh --workload scrape --seed 3 --trace 1
#   bash bench/run.sh --workload all --runs 10
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository root: the Go build cache, the binaries, and one
# directory per run (removed when the run passes).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/ihbench" .
cd "$root"
exec "$out/ihbench" "$@"
