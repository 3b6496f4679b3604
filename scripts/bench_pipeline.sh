#!/bin/sh
# bench_pipeline.sh — run one benchmark lane and write a
# benchstat-friendly JSON artifact.
#
#   scripts/bench_pipeline.sh [out.json]
#
# Environment:
#   BENCH_LANE   pipeline (default): E1 static regimes, E2 dynamic
#                regimes, F3 optimize/compile round trip — compares
#                optimizer plans.
#                exec: the physical execution kernels (BenchmarkExec_*)
#                — wall clock, allocs/op and steps/call of select, join,
#                exists and indexscan on one fixed plan, where
#                engine-level changes show up while steps/call must not
#                move.
#                server: loopback tycd throughput (BenchmarkServer_*) at
#                1/8/64 concurrent sessions submitting the same PTML
#                selection — per-request wire + shared-cache overhead;
#                hits/op must stay 1.0 (one compilation total).
#                cluster: distributed submit (BenchmarkCluster_*) at
#                1/3/8 shards plus hedged-vs-unhedged tail latency
#                against a straggling replica — coordinator fan-out and
#                merge overhead; hits/op must stay 1.0 per shard, and
#                the hedged p99-ms should sit near the hedge threshold
#                instead of the straggler delay.
#                store: MVCC commit throughput (BenchmarkStore_*) at
#                1/8/64 concurrent transactions against a file-backed
#                store — the group-commit fsync amortization; ns/op at
#                64 sessions must land well under the single-session
#                line and txns/batch shows how many transactions each
#                flush carried.
#   BENCH_TIME   -benchtime value (default 1x: one measured iteration —
#                the suite reports deterministic steps/call, so a single
#                iteration is meaningful; raise for stable ns/op)
#   BENCH_COUNT  -count value (default 1; raise for benchstat variance —
#                with a baseline, each row is gated on its median)
#   BENCH_BASELINE  committed artifact to gate against: the run fails if
#                a machine-independent metric (allocs/op, steps/call —
#                plus ns/op and B/op when the cpu matches) regresses by
#                more than BENCH_MAXREGRESS (default 0.2) vs the
#                baseline.
#
# The committed exec and pipeline baselines hold three multi-iteration
# runs per row (the gate reads their median); they were made, and CI
# runs the lanes, with:
#   BENCH_LANE=exec BENCH_TIME=100x BENCH_COUNT=3 \
#     scripts/bench_pipeline.sh bench/BENCH_exec.json
#   BENCH_TIME=10x BENCH_COUNT=3 \
#     scripts/bench_pipeline.sh bench/BENCH_pipeline.json
set -eu
cd "$(dirname "$0")/.."

lane="${BENCH_LANE:-pipeline}"
case "$lane" in
pipeline) pattern='BenchmarkE1|BenchmarkE2|BenchmarkF3' ;;
exec) pattern='BenchmarkExec' ;;
server) pattern='BenchmarkServer' ;;
cluster) pattern='BenchmarkCluster' ;;
store) pattern='BenchmarkStore' ;;
*) echo "bench_pipeline.sh: unknown BENCH_LANE '$lane'" >&2; exit 2 ;;
esac

out="${1:-BENCH_${lane}.json}"
benchtime="${BENCH_TIME:-1x}"
count="${BENCH_COUNT:-1}"

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT

go test -run '^$' -bench "$pattern" \
  -benchtime "$benchtime" -count "$count" . | tee "$txt"
if [ -n "${BENCH_BASELINE:-}" ]; then
  go run ./cmd/benchjson -lane "$lane" \
    -baseline "$BENCH_BASELINE" -maxregress "${BENCH_MAXREGRESS:-0.2}" \
    <"$txt" >"$out"
else
  go run ./cmd/benchjson -lane "$lane" <"$txt" >"$out"
fi
echo "wrote $out"
