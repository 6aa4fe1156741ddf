#!/usr/bin/env bash
# Tier-1 verification.
#
# 1. Full build, warnings as errors, + the whole test suite (the seed's
#    tier-1 gate). The long chaos soak (label `soak`) is excluded here — its
#    smoke variant runs as a normal test; the full-length run is
#    scripts/soak.sh.
# 2. A ThreadSanitizer build (-DELEOS_SANITIZE=thread) re-running the
#    concurrency-sensitive suites: the lock-free job queue / worker pool /
#    watchdog, SUVM's striped paging locks, the relaxed-atomic telemetry
#    layer, the paging gate's virtual-time section record, the HealthFsm,
#    the fault-injection paths that deliberately race workers against
#    submitter timeouts, the boundary fuzz (a live
#    scribbler thread storing garbage into the shared job slots), the
#    time-series sampler (cut inside ChargeCost under component locks), the
#    LLC model's one lock per range (cache_model_test's threaded case alone,
#    as the ctest `cache_model_race`), and the driver's enclave table read by
#    a balloon pass while another thread creates and destroys enclaves.
#    It also re-runs the face-database build's worker threads and
#    look-ahead ring.
# 3. An ASan+UBSan build re-running the hostile-host suites: fault injection,
#    the chaos-soak smoke, crash recovery (kill/restart over a surviving
#    arena) and the boundary fuzz — the paths that poke
#    at lifetimes (abandoned jobs, quarantined pages, dead enclave
#    instances, tampered/scribbled slots), plus the paging gate's section
#    record (a bounded vector spliced on every release), plus the crypto
#    suites and the face-verification kernels, whose SIMD loads must never
#    pass a buffer's last byte, plus the parameter server's page-at-a-time
#    fill and the LLC and TLB models against their timestamp-scan oracles
#    (the shared exact-LRU tag store indexes its arrays by set and way),
#    plus the huge-page allocation under the EPC frame pool and the SUVM
#    backing arena, which must keep ASan's redzone past each pool, plus the
#    security and driver suites, which drive every seal and open site (the
#    driver's EWB/ELDU and blobs, SUVM's whole-page, sub-page, journaled and
#    recovery seals) into AES-GCM through a cast AAD pointer, plus the SUVM,
#    spointer and driver-property suites, which index SUVM's page and
#    sub-page tables by backing-store page and the driver's per-enclave page
#    arrays by virtual page (and hand both addresses past their ends).
# 4. A benchmark smoke stage: runs the baseline benches end-to-end and
#    validates the emitted BENCH_*.json (fails on malformed/empty output,
#    including the schema-v2 timeline block) plus the TRACE_*.json span
#    traces (phase balance, per-track timestamp monotonicity, span-id
#    referential integrity, the cross-boundary worker-child link in the RPC
#    trace, and counter tracks cross-checked against the .timeline.json
#    sibling), then diffs the smoke numbers against the committed baselines
#    with scripts/bench_diff.py.
# 5. The end-to-end benchmark's smoke check: eleos_bench/run.py builds
#    bench_eleos from its own CMakeLists and runs all four workloads at smoke
#    sizes, untraced and traced, checking every verdict and metric.
#
# Stages 2 and 3 run the suites that carry the ctest label `tsan` or `asan`;
# tests/CMakeLists.txt gives the labels and builds each label's suites as the
# target `tsan_tests` or `asan_tests`.
#
# All three ctest stages run their suites in parallel (-j"$(nproc)"): no
# count a test asserts depends on a worker thread winning a wall-clock race
# within a fixed number of calls, so the suites pass under that load.
#
# ELEOS_FLIGHT_DIR is exported for the suite runs: any soak/chaos harness
# that fails dumps a post-mortem flight bundle there (CI uploads it).
set -euo pipefail
cd "$(dirname "$0")/.."

export ELEOS_FLIGHT_DIR="${ELEOS_FLIGHT_DIR:-$PWD/flight}"
mkdir -p "$ELEOS_FLIGHT_DIR"

cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)" -LE soak)

cmake -B build-tsan -S . -DELEOS_SANITIZE=thread
cmake --build build-tsan -j --target tsan_tests
(cd build-tsan && ctest --output-on-failure -j"$(nproc)" -L tsan)

cmake -B build-asan -S . -DELEOS_SANITIZE=address,undefined
cmake --build build-asan -j --target asan_tests
(cd build-asan && ctest --output-on-failure -j"$(nproc)" -L asan)

OUT_DIR="$(mktemp -d)" scripts/bench.sh --smoke

python3 eleos_bench/run.py --smoke
