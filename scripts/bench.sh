#!/usr/bin/env bash
# bench.sh: run the performance-tracking benchmark set and emit a JSON
# snapshot (default BENCH.json) for scripts/benchdiff.go.
#
# The set is split in four because the right benchtime differs:
#   - simulator benchmarks (all 15 Table 3 cells: corner turn, CSLC and
#     beam steering on every machine): a handful of fixed iterations —
#     each iteration is a full deterministic simulation, so more
#     iterations only burn time. Each also reports ns/sim-cycle, the
#     simulator's own cost per simulated cycle;
#   - service benchmarks (BenchmarkServiceThroughput): time-based, the
#     usual regime for nanosecond-scale operations;
#   - the sequential-jobs grid leg (BatchGrid/sequential-jobs-1000): one
#     fixed iteration — it submits a 1,000-cell grid one job at a time
#     and takes seconds, so time-based sampling would just rerun it;
#   - every other grid leg (BenchmarkBatchGrid, BenchmarkDSEGrid):
#     time-based, 1s. Their iterations take well under a second (a warm
#     memo answers a whole grid in milliseconds), and a single
#     iteration's reading depends on whether a GC lands inside it.
#
# Each benchmark runs -count times and benchdiff keeps the best (min
# ns/op) run per benchmark: min-of-N filters out scheduler noise, which
# matters because single-sample jitter on a busy machine can exceed the
# wall-clock gate (BENCH_TOL, 30% under `make benchdiff`). Simulated
# cycle counts are identical across runs regardless.
#
# Corner-turn B/op is not a stable number, and it swings with
# -benchtime. Each run stages its two multi-megabyte matrices (source
# and destination; verification compares them element by element)
# through testsig.matrixPool, a sync.Pool. The GC empties a sync.Pool, so an
# iteration after a collection reallocates the matrices and one before
# reuses them. B/op therefore counts how many collections landed inside
# the timed iterations, divided by the iteration count. Compare
# corner-turn B/op across snapshots only at equal benchtime.
#
# Environment knobs:
#   BENCH_COUNT    (default 3)     repetitions per benchmark (min is kept)
#   SIM_BENCHTIME  (default 20x)   benchtime for the simulator set
#   SVC_BENCHTIME  (default 0.5s)  benchtime for the service set
#   GRID_BENCHTIME (default 1x)    benchtime for the sequential-jobs leg
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run='^$' -bench='Table3CornerTurn|Table3CSLC|Table3BeamSteering' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${SIM_BENCHTIME:-20x}" . | tee "$tmp"
go test -run='^$' -bench='ServiceThroughput|EstimateTier' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${SVC_BENCHTIME:-0.5s}" . | tee -a "$tmp"
go test -run='^$' -bench='BatchGrid/sequential' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${GRID_BENCHTIME:-1x}" . | tee -a "$tmp"
go test -run='^$' -bench='BatchGrid|DSEGrid' -skip='BatchGrid/sequential' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime=1s . | tee -a "$tmp"

go run scripts/benchdiff.go -emit "$tmp" > "$out"
echo "wrote $out"
