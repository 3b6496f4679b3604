#!/bin/sh
# ab.sh — compare one benchmark lane of a base commit (A) with the
# working tree (B) on this host, in alternating rounds.
#
#   scripts/ab.sh base [rounds]
#
# base is any commit, typically the merge base of a change
# (git merge-base HEAD main); rounds defaults to 10. Both sides' test
# binaries are built before anything runs: B from the working tree, A
# from a git archive of base unpacked into a temporary directory, so no
# network is needed and nothing is left in .git. The rounds then run
# ABAB…, the side that goes first alternating, each at the same
# -benchtime and -count, and every row is reported as
#
#   name: A median → B median ns/op (B/A ratio; IQR A …, B …; B ahead in k of N pairs)
#
# where a pair is one round's A and B (with -count above 1, each side's
# median within the round). Only ns/op is compared: steps/call and
# allocs/op are deterministic and gated against the committed baselines
# by scripts/bench_pipeline.sh. Nothing here gates; read a row by its
# ratio, its win count and how the IQRs compare with the difference.
#
# The lane and run length come from the variables bench_pipeline.sh
# reads: BENCH_LANE (pipeline by default; exec, server, cluster, store),
# BENCH_TIME (default 10x) and BENCH_COUNT (default 1).
set -eu
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/ab.sh base [rounds]}"
rounds="${2:-10}"
lane="${BENCH_LANE:-pipeline}"
# The lanes of bench_pipeline.sh.
case "$lane" in
pipeline) pattern='BenchmarkE1|BenchmarkE2|BenchmarkF3' ;;
exec) pattern='BenchmarkExec' ;;
server) pattern='BenchmarkServer' ;;
cluster) pattern='BenchmarkCluster' ;;
store) pattern='BenchmarkStore' ;;
*) echo "ab.sh: unknown BENCH_LANE '$lane'" >&2; exit 2 ;;
esac
benchtime="${BENCH_TIME:-10x}"
count="${BENCH_COUNT:-1}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/a"
git archive "$base" | tar -x -C "$tmp/a"
(cd "$tmp/a" && go test -c -o "$tmp/a.test" .)
go test -c -o "$tmp/b.test" .

# run side round: one run of a side's binary in its own source tree,
# appending "side round name ns" lines.
run() {
  if [ "$1" = a ]; then dir="$tmp/a"; else dir=.; fi
  (cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench "$pattern" \
    -test.benchtime "$benchtime" -test.count "$count" -test.timeout 30m) |
    awk -v side="$1" -v round="$2" '/^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") print side, round, name, $i
    }' >>"$tmp/ns"
}

r=1
while [ "$r" -le "$rounds" ]; do
  if [ $((r % 2)) -eq 1 ]; then run a "$r"; run b "$r"; else run b "$r"; run a "$r"; fi
  echo "ab.sh: round $r of $rounds done" >&2
  r=$((r + 1))
done

echo "lane $lane: $(git rev-parse --short "$base") (A) vs working tree (B), $rounds rounds of -benchtime $benchtime -count $count"
awk -v rounds="$rounds" '
function sortv(v, n,   i, j, x) {
  for (i = 2; i <= n; i++) { x = v[i]; for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]; v[j + 1] = x }
}
# q returns the p-quantile of the sorted v[1..n], interpolated.
function q(v, n, p,   h, lo) {
  h = (n - 1) * p + 1; lo = int(h)
  return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
{ key = $3 SUBSEP $1 SUBSEP $2; cell[key, ++cn[key]] = $4; rows[$3] = 1 }
END {
  for (name in rows) {
    wins = 0; pairs = 0
    for (side = 0; side < 2; side++) n[side] = 0
    for (r = 1; r <= rounds; r++) {
      ok = 1
      for (side = 0; side < 2; side++) {
        key = name SUBSEP (side ? "b" : "a") SUBSEP r
        m = cn[key]
        if (m == 0) { ok = 0; continue }
        delete v; for (i = 1; i <= m; i++) v[i] = cell[key, i]
        sortv(v, m); med[side] = q(v, m, 0.5)
        all[side, ++n[side]] = med[side]
      }
      if (ok) { pairs++; if (med[1] < med[0]) wins++ }
    }
    if (n[0] == 0 || n[1] == 0) { printf "%s: missing on one side\n", name; continue }
    for (side = 0; side < 2; side++) {
      delete v; for (i = 1; i <= n[side]; i++) v[i] = all[side, i]
      sortv(v, n[side])
      mid[side] = q(v, n[side], 0.5); iqr[side] = q(v, n[side], 0.75) - q(v, n[side], 0.25)
    }
    printf "%s: %.0f → %.0f ns/op (%.3f; IQR A %.0f, B %.0f; B ahead in %d of %d pairs)\n",
      name, mid[0], mid[1], mid[1] / mid[0], iqr[0], iqr[1], wins, pairs
  }
}' "$tmp/ns" | sort
