#!/usr/bin/env bash
# Runs the repository's performance benchmarks (quick Fig. 18/19/22),
# writes results/BENCH_<date>[-tag].json, and prints a comparison
# against the committed results/BENCH_baseline.json with per-figure
# wall-clock % deltas.
#
#   FAIL_ABOVE=0.2 scripts/bench.sh     # exit non-zero on a >20%
#                                       # wall-clock regression
#   scripts/bench.sh -workers 1 ...     # extra args forwarded to
#                                       # cmd/bench
#   scripts/bench.sh -profile-workers 4 # additionally record the
#                                       # 4-worker cold-profiling
#                                       # entry ("profile-cold-pw4")
#
# Besides the figures, every run records "profile-cold": one
# from-scratch build of the catalog's offline profiles into a fresh
# temp cache (the dominant cost of any cold run).
#
# By default the on-disk profile cache (results/profiles/) is used so
# the figure entries measure the serving engine, not repeated offline
# profiling; pass -profile-cache "" to measure them cold, or
# -profile-cache-clear to drop the cache first.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./cmd/bench \
    -profile-cache results/profiles \
    -fail-above "${FAIL_ABOVE:-0}" \
    "$@"
