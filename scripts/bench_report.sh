#!/usr/bin/env bash
# Collect every bench binary's structured `--json` run report into one
# machine-readable BENCH_15.json document. Each report is validated
# against the xobs schema (via `xr32-trace check-report`) before it is
# admitted. Set RUN_MICROBENCH=1 to also run the criterion suites and
# fold their stable `BENCH,<name>,<median_ns>` lines into the output.
#
# Compare two collected envelopes with `bench_diff old.json new.json`
# (ci.sh gates on the committed baseline this way).
#
# usage: scripts/bench_report.sh [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_15.json}
BIN=target/release

cargo build --release -q --package bench --package xserve

# name + small arguments so a full collection pass stays quick; the
# report schema is size-independent.
RUNS=(
  "table1_speedups 256"
  "fig8_ssl 256"
  "fig1_gap"
  "fig4_callgraph 8"
  "fig5_adcurves 8"
  "fig6_cartesian"
  "sec43_exploration 128 2"
  "engine_gate"
  "xserve-bench 1000 1000000"
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

reports=()
for run in "${RUNS[@]}"; do
  # shellcheck disable=SC2086
  set -- $run
  name=$1
  shift
  echo "bench_report: $name $*" >&2
  "$BIN/$name" --json "$@" >"$tmp/$name.json"
  "$BIN/xr32-trace" check-report "$tmp/$name.json" >&2
  reports+=("$(cat "$tmp/$name.json")")
done

micro=""
if [[ "${RUN_MICROBENCH:-0}" == "1" ]]; then
  echo "bench_report: criterion microbenchmarks" >&2
  while IFS=, read -r _ bname ns; do
    [[ -n "$micro" ]] && micro+=","
    micro+="{\"name\":\"$bname\",\"median_ns\":$ns}"
  done < <(cargo bench 2>/dev/null | grep '^BENCH,' || true)
fi

{
  printf '{"schema_version":2,"reports":['
  first=1
  for r in "${reports[@]}"; do
    [[ $first == 1 ]] || printf ','
    first=0
    printf '%s' "$r"
  done
  printf '],"microbench":[%s]}\n' "$micro"
} >"$OUT"

echo "bench_report: wrote $OUT (${#reports[@]} reports)" >&2
