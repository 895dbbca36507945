#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. bash perfbench/run.sh --workload overload --seed 1 --seconds 40 --trace 0
# Run from the repository root. The Go build cache, the binary and the
# toolchain's config files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
