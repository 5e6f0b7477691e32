#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload burst-1024 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes — the binary, the
# Go build cache, output digests and span dumps — goes under .bench_build/
# in the current directory, and no module is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
# -trimpath keeps source paths out of the binary, so the same code built
# in another directory has the same build ID (see digest.go).
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
