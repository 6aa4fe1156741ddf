#!/usr/bin/env bash
# Tier-1 verification.
#
# 1. Full build + the whole test suite (the seed's tier-1 gate). The long
#    chaos soak (label `soak`) is excluded here — its smoke variant runs as a
#    normal test; the full-length run is scripts/soak.sh.
# 2. A ThreadSanitizer build (-DELEOS_SANITIZE=thread) re-running the
#    concurrency-sensitive suites: the lock-free job queue / worker pool /
#    watchdog, SUVM's striped paging locks, the relaxed-atomic telemetry
#    layer, the paging gate's virtual-time section record, the HealthFsm,
#    the fault-injection paths that deliberately race workers against
#    submitter timeouts, the boundary fuzz (a live
#    scribbler thread storing garbage into the shared job slots), and the
#    time-series sampler (cut inside ChargeCost under component locks).
# 3. An ASan+UBSan build re-running the hostile-host suites: fault injection,
#    the chaos-soak smoke, crash recovery (kill/restart over a surviving
#    arena), the secure channel, and the boundary fuzz — the paths that poke
#    at lifetimes (abandoned jobs, quarantined pages, dead enclave
#    instances, tampered/scribbled slots), plus the paging gate's section
#    record (a bounded vector spliced on every release).
# 4. A benchmark smoke stage: runs the baseline benches end-to-end and
#    validates the emitted BENCH_*.json (fails on malformed/empty output,
#    including the schema-v2 timeline block) plus the TRACE_*.json span
#    traces (phase balance, per-track timestamp monotonicity, span-id
#    referential integrity, the cross-boundary worker-child link in the RPC
#    trace, and counter tracks cross-checked against the .timeline.json
#    sibling), then diffs the smoke numbers against the committed baselines
#    with scripts/bench_diff.py.
#
# ELEOS_FLIGHT_DIR is exported for the suite runs: any soak/chaos harness
# that fails dumps a post-mortem flight bundle there (CI uploads it).
set -euo pipefail
cd "$(dirname "$0")/.."

export ELEOS_FLIGHT_DIR="${ELEOS_FLIGHT_DIR:-$PWD/flight}"
mkdir -p "$ELEOS_FLIGHT_DIR"

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)" -LE soak)

TSAN_TESTS='^(rpc_test|rpc_stress_test|rpc_async_test|suvm_test|suvm_parallel_test|suvm_property_test|virtual_gate_test|fault_injection_test|telemetry_test|health_test|span_test|timeseries_test|flight_recorder_test|crash_recovery_test|boundary_fuzz_test)$'
cmake -B build-tsan -S . -DELEOS_SANITIZE=thread
cmake --build build-tsan -j --target \
  rpc_test rpc_stress_test rpc_async_test suvm_test suvm_parallel_test \
  suvm_property_test virtual_gate_test \
  fault_injection_test telemetry_test health_test span_test \
  timeseries_test flight_recorder_test \
  crash_recovery_test boundary_fuzz_test
(cd build-tsan && ctest --output-on-failure -R "$TSAN_TESTS")

ASAN_TESTS='^(fault_injection_test|chaos_soak_test|crash_recovery_test|secure_channel_test|boundary_fuzz_test|flight_recorder_test|suvm_parallel_test|virtual_gate_test)$'
cmake -B build-asan -S . -DELEOS_SANITIZE=address,undefined
cmake --build build-asan -j --target \
  fault_injection_test chaos_soak_test crash_recovery_test \
  secure_channel_test boundary_fuzz_test flight_recorder_test \
  suvm_parallel_test virtual_gate_test
(cd build-asan && ctest --output-on-failure -R "$ASAN_TESTS")

OUT_DIR="$(mktemp -d)" scripts/bench.sh --smoke
