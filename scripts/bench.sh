#!/usr/bin/env bash
# Runs the baseline benchmarks and emits BENCH_rpc.json / BENCH_suvm.json,
# then validates the emitted files (schema, percentile sanity, non-empty
# counters). --smoke runs a small deterministic workload for CI; the default
# full mode is for recording real baselines.
#
# Each bench also records a span trace (TRACE_rpc.json / TRACE_suvm.json,
# each with .folded flamegraph and .timeline.json siblings) — the CI trace
# artifacts, regenerated on every run and never committed — and both are
# validated with scripts/validate_trace.py; the RPC trace must prove the
# cross-boundary link (worker-execution spans parented by enclave calls), and
# both traces' counter tracks are cross-checked against the timeline windows
# they were exported from.
#
# When OUT_DIR points somewhere other than the repo root (CI does this), the
# freshly emitted BENCH_*.json are additionally diffed against the committed
# baselines with scripts/bench_diff.py: the scale-invariant metrics (latency
# percentiles, cycles-per-call, speedups) must stay within
# BENCH_DIFF_THRESHOLD (fractional, default 0.10). The committed baselines
# are smoke-mode artifacts regenerated in place via
# `OUT_DIR=$PWD scripts/bench.sh --smoke`, and the simulation is
# deterministic — a same-mode re-run is byte-identical, so any drift at all
# is a real code change. Set BENCH_DIFF_THRESHOLD=inf to report without
# gating.
#
# Usage: scripts/bench.sh [--smoke]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${OUT_DIR:-$ROOT}"

MODE_FLAG=""
for arg in "$@"; do
  case "$arg" in
    --smoke) MODE_FLAG="--smoke" ;;
    *) echo "bench.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

if [[ ! -d "$BUILD" ]]; then
  cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" --target bench_baseline_rpc bench_baseline_suvm -j

"$BUILD/bench/bench_baseline_rpc" $MODE_FLAG --out "$OUT/BENCH_rpc.json" \
  --trace-out "$OUT/TRACE_rpc.json"
"$BUILD/bench/bench_baseline_suvm" $MODE_FLAG --out "$OUT/BENCH_suvm.json" \
  --trace-out "$OUT/TRACE_suvm.json"

python3 "$ROOT/scripts/validate_bench.py" \
  "$OUT/BENCH_rpc.json" "$OUT/BENCH_suvm.json"
python3 "$ROOT/scripts/validate_trace.py" --require-worker-child \
  --timeline-from="$OUT/TRACE_rpc.json.timeline.json" "$OUT/TRACE_rpc.json"
python3 "$ROOT/scripts/validate_trace.py" \
  --timeline-from="$OUT/TRACE_suvm.json.timeline.json" "$OUT/TRACE_suvm.json"

# Regression gate: fresh numbers vs the committed baselines. Skipped when
# writing the baselines in place (OUT == ROOT: the diff would be a no-op).
if [[ "$OUT" != "$ROOT" ]]; then
  THRESH="${BENCH_DIFF_THRESHOLD:-0.10}"
  for name in rpc suvm; do
    if [[ -f "$ROOT/BENCH_$name.json" ]]; then
      python3 "$ROOT/scripts/bench_diff.py" --threshold "$THRESH" \
        "$ROOT/BENCH_$name.json" "$OUT/BENCH_$name.json"
    else
      echo "bench.sh: no committed BENCH_$name.json baseline, skipping diff"
    fi
  done
fi

echo "bench.sh: baselines written to $OUT/BENCH_{rpc,suvm}.json" \
  "(traces: $OUT/TRACE_{rpc,suvm}.json + .folded + .timeline.json)"
