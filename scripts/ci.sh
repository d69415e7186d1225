#!/usr/bin/env bash
# Full local CI: build, tests, formatting, lints. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Flake gate: the KCache concurrency tests (persister vs. readers) must
# pass on every one of 20 repeated runs, so a scheduling-dependent
# assertion shows up here rather than as a random red run.
for i in $(seq 1 20); do
  if ! out=$(cargo test -q -p secproc --lib kcache:: 2>&1); then
    echo "$out" >&2
    echo "ci: kcache tests failed on repetition $i of 20" >&2
    exit 1
  fi
done
echo "ci: kcache tests stable (20 of 20 runs)"

# Observability smoke: trace a couple of base-AES blocks and assert the
# known kernel hot spots show up in the replayed attribution report.
cargo build --release -q --package bench
TRACE=$(mktemp /tmp/ci_aes.XXXXXX.xtrace)
trap 'rm -f "$TRACE"' EXIT
target/release/xr32-trace record aes "$TRACE" 2
SUMMARY=$(target/release/xr32-trace summary "$TRACE")
for hot in subshift mixcols addkey; do
  if ! grep -q "$hot" <<<"$SUMMARY"; then
    echo "ci: '$hot' missing from AES trace hot report" >&2
    exit 1
  fi
done

# Every bench binary's --json output must be a schema-valid run report.
target/release/table1_speedups --json 128 | target/release/xr32-trace check-report -
target/release/fig8_ssl --json 256 | target/release/xr32-trace check-report -
target/release/fig1_gap --json | target/release/xr32-trace check-report -
target/release/fig4_callgraph --json 8 | target/release/xr32-trace check-report -
target/release/fig5_adcurves --json 8 | target/release/xr32-trace check-report -
target/release/fig6_cartesian --json | target/release/xr32-trace check-report -
target/release/sec43_exploration --json 128 2 | target/release/xr32-trace check-report -
target/release/xopt_gate --json 8 | target/release/xr32-trace check-report -
target/release/engine_gate --json | target/release/xr32-trace check-report -

# Determinism gate: the parallel methodology engine must produce
# byte-identical reports (modulo host-timing fields, stripped by
# `normalize-report`) at 1 thread and 8 threads, each from a cold
# kernel-cycle cache. sec43_exploration and fig8_ssl are the two
# consumers of macro-model metering (`ModeledMpn`).
DET=$(mktemp -d /tmp/ci_det.XXXXXX)
trap 'rm -f "$TRACE"; rm -rf "$DET"' EXIT
for run in "sec43_exploration --json 128 2" "fig5_adcurves --json 8" "fig8_ssl --json 256"; do
  # shellcheck disable=SC2086
  set -- $run
  name=$1
  WSP_THREADS=1 WSP_KCACHE="$DET/$name.t1.kcache" "target/release/$@" \
    | target/release/xr32-trace normalize-report - >"$DET/$name.t1.json"
  WSP_THREADS=8 WSP_KCACHE="$DET/$name.t8.kcache" "target/release/$@" \
    | target/release/xr32-trace normalize-report - >"$DET/$name.t8.json"
  if ! diff -u "$DET/$name.t1.json" "$DET/$name.t8.json"; then
    echo "ci: $name report differs between WSP_THREADS=1 and 8" >&2
    exit 1
  fi
  echo "ci: $name deterministic across thread counts"
done

# Span-smoke gate: schema-5 reports must carry a populated span tree
# (`xr32-trace spans` exits non-zero on an empty or missing one) whose
# Chrome export converts cleanly.
SPANS=$(target/release/fig5_adcurves --json 8)
target/release/xr32-trace spans - <<<"$SPANS" >/dev/null
target/release/xr32-trace chrome - <<<"$SPANS" | grep -q '"traceEvents"'
echo "ci: span smoke ok (fig5_adcurves emits a populated span tree)"

# Perf smoke: a small exploration must finish within a generous wall
# budget, and a warm re-run against the same kernel-cycle cache must
# actually hit it (memo_hit_rate > 0).
start=$SECONDS
WSP_KCACHE="$DET/perf.kcache" target/release/sec43_exploration --json 128 2 >/dev/null
elapsed=$((SECONDS - start))
if ((elapsed > 300)); then
  echo "ci: cold sec43_exploration took ${elapsed}s (budget 300s)" >&2
  exit 1
fi
WARM=$(WSP_KCACHE="$DET/perf.kcache" target/release/sec43_exploration --json 128 2)
hit_rate=$(grep -o '"memo_hit_rate": *[0-9.eE+-]*' <<<"$WARM" | head -1 | sed 's/.*: *//')
if [[ -z "$hit_rate" ]] || ! awk -v h="$hit_rate" 'BEGIN { exit !(h > 0) }'; then
  echo "ci: warm sec43_exploration memo_hit_rate '$hit_rate' not > 0" >&2
  exit 1
fi
echo "ci: perf smoke ok (cold ${elapsed}s, warm memo_hit_rate $hit_rate)"

# Registry gate: the kernel registry's invariants must hold (unique
# cache tags, stimulus space per kernel, annotated entry labels), and
# every assembly library it enumerates must pass xr32-lint — so a
# kernel cannot be registered without being characterizable and linted.
cargo build --release -q --package kreg --package xlint
KREG=$(mktemp -d /tmp/ci_kreg.XXXXXX)
trap 'rm -f "$TRACE"; rm -rf "$DET" "$KREG"' EXIT
target/release/kreg-audit --dump "$KREG" >"$KREG/units.txt"
# shellcheck disable=SC2046
target/release/xr32-lint $(cat "$KREG/units.txt")
echo "ci: kernel registry audit + lint gate ok ($(wc -l <"$KREG/units.txt") units)"

# Variant-generation gate: every accelerator level of every
# Generated-variant kernel must produce an xopt variant that passes the
# lint + golden admission gate and measures within 5% of (or better
# than) the hand-written variant. Non-zero exit on any rejection or
# slowdown. Run at two sizes: one where the blocked loop covers the
# whole operand, and one that exercises the scalar tail.
target/release/xopt_gate 32
target/release/xopt_gate 37
echo "ci: xopt variant-generation gate ok"

# Deprecation gate: nothing in the workspace (bins, benches, tests,
# examples) may introduce or use deprecated items — the legacy flow
# shims are gone and must stay gone.
RUSTFLAGS="-D deprecated" cargo check -q --workspace --all-targets
echo "ci: deprecation gate ok (workspace is deprecation-free)"

# Serving-layer gate: a job run through the xserve daemon must produce
# a byte-identical normalized report to the same JobSpec run directly
# in-process, cancellation must surface the stable 4004 code (and count
# in the scheduler stats), and concurrent clients hammering the cached
# kernel-cycle query path must all observe the same values.
cargo build --release -q --package xserve
target/release/xserve-gate
echo "ci: serving-layer gate ok (daemon == direct, cancellation typed, queries coherent)"

# Fault-smoke gate: a fixed-seed injection campaign must (a) satisfy its
# own detection/recovery contract (non-zero exit otherwise), and (b)
# produce byte-identical reports at 1 and 8 worker threads — fault
# streams are keyed by unit submission index, never by scheduling.
FAULT=$(mktemp -d /tmp/ci_fault.XXXXXX)
trap 'rm -f "$TRACE"; rm -rf "$DET" "$KREG" "$FAULT"' EXIT
WSP_THREADS=1 target/release/xr32-fault --json 4 2000 16 \
  | target/release/xr32-trace normalize-report - >"$FAULT/t1.json"
WSP_THREADS=8 target/release/xr32-fault --json 4 2000 16 \
  | target/release/xr32-trace normalize-report - >"$FAULT/t8.json"
if ! diff -u "$FAULT/t1.json" "$FAULT/t8.json"; then
  echo "ci: xr32-fault campaign differs between WSP_THREADS=1 and 8" >&2
  exit 1
fi
target/release/xr32-trace check-report - <"$FAULT/t1.json"
# Resilient flow: fig8 under an aggressive data-memory campaign must
# still complete and must report what it degraded.
DEGRADED=$(WSP_FAULTS="seed=5,rate=300000,sites=data" WSP_THREADS=4 \
  target/release/fig8_ssl --json 256)
target/release/xr32-trace check-report - <<<"$DEGRADED"
if ! grep -q '"degradations"' <<<"$DEGRADED"; then
  echo "ci: faulted fig8_ssl run reported no degradations" >&2
  exit 1
fi
echo "ci: fault smoke ok (campaign deterministic, fig8 degrades gracefully)"

# Engine gate: the in-order core, the out-of-order core and the fast
# path must be ArchState-bit-identical pairwise across the full kreg
# golden workload; the out-of-order core must win the aggregate cycle
# count with an IPC in the sanity window (above in-order, at most the
# issue width); and the fast path must beat the in-order engine by at
# least 3x wall clock, each engine timed by its fastest of 5 alternating
# passes. A timing model that leaks architectural state, loses the
# out-of-order win, over-issues, or routes the fast path back through
# timing fails CI.
target/release/engine_gate
echo "ci: engine gate ok (three-engine co-sim bit-identical, OoO wins, fast path >= 3x)"

# Bench-envelope regression gates. First the historical diff: the
# committed BENCH_15 envelope must not regress any deterministic metric
# against the committed BENCH_2 baseline beyond the documented 3%
# legacy drift (model/registry evolution across the intervening
# changes). Then the reproducibility diff: a freshly collected
# envelope must match the committed BENCH_15 *exactly* once normalized
# — any deterministic delta is a regression introduced by the working
# tree.
target/release/bench_diff --tol 3 BENCH_2.json BENCH_15.json >/dev/null
FRESH=$(mktemp /tmp/ci_bench.XXXXXX.json)
trap 'rm -f "$TRACE" "$FRESH"; rm -rf "$DET" "$KREG" "$FAULT"' EXIT
scripts/bench_report.sh "$FRESH" >/dev/null 2>&1
target/release/bench_diff BENCH_15.json "$FRESH"
echo "ci: bench envelope gates ok (BENCH_2 -> BENCH_15 within drift, fresh run exact)"
