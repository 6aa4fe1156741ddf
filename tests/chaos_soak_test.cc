// Copyright (c) Eleos reproduction authors. MIT license.
//
// Deterministic chaos soak: long randomized workloads driven through a
// seed-derived schedule of overlapping fault windows (FaultInjector's
// virtual-time schedule), with per-round invariants:
//
//  * shadow-model equality — every successful SUVM read matches an in-DRAM
//    byte model; every failed op leaves the model untouched;
//  * monotonicity — no hostile-host counter ever goes backwards;
//  * self-healing end state — after the schedule is cleared, quarantined
//    pages restore, the allocation FSM re-closes, and the full region is
//    byte-identical to the shadow;
//  * benign identity — with an armed-but-empty harness the run is
//    byte-identical (virtual cycles and all counters) to a run that never
//    touches the injector.
//
// Scale knobs (also used by scripts/soak.sh for the full-length run):
//   ELEOS_SOAK_OPS   total operations for the main soak (default 30000)
//   ELEOS_SOAK_SEED  workload + schedule seed        (default 0xe1e05)
//
// Tracing: `--trace-out=<path>` (or ELEOS_TRACE_OUT) makes the traced smoke
// test export its Chrome trace (+ a .folded flamegraph) — the chaos-soak
// entry point for the span tracer. This binary has its own main() for that.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/kvcache.h"
#include "src/apps/mem_region.h"
#include "src/common/health.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries.h"
#include "tests/test_json.h"

// Set by this binary's main() from --trace-out= / ELEOS_TRACE_OUT.
static std::string g_trace_out;  // NOLINT(runtime/string)

namespace eleos::suvm {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

uint64_t SoakOps() { return std::max<uint64_t>(EnvU64("ELEOS_SOAK_OPS", 30000), 1000); }
uint64_t SoakSeed() { return EnvU64("ELEOS_SOAK_SEED", 0xe1e05); }

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

// Monotonic snapshot of every hostile-host counter the soak watches.
struct CounterSnapshot {
  uint64_t mac_failures = 0;
  uint64_t rollbacks = 0;
  uint64_t retries = 0;
  uint64_t alloc_failures = 0;
  uint64_t pages_quarantined = 0;
  uint64_t quarantine_hits = 0;
  uint64_t pages_restored = 0;
  uint64_t degraded_rejects = 0;
  uint64_t injected = 0;

  static CounterSnapshot Take(const Suvm& suvm, const sim::FaultInjector& f) {
    const Suvm::Stats& s = suvm.stats();
    return {s.mac_failures.load(),      s.rollbacks_detected.load(),
            s.retries.load(),           s.alloc_failures.load(),
            s.pages_quarantined.load(), s.quarantine_hits.load(),
            s.pages_restored.load(),    s.degraded_rejects.load(),
            f.total_injected()};
  }

  void ExpectMonotonicFrom(const CounterSnapshot& prev, uint64_t round) const {
    EXPECT_GE(mac_failures, prev.mac_failures) << "round " << round;
    EXPECT_GE(rollbacks, prev.rollbacks) << "round " << round;
    EXPECT_GE(retries, prev.retries) << "round " << round;
    EXPECT_GE(alloc_failures, prev.alloc_failures) << "round " << round;
    EXPECT_GE(pages_quarantined, prev.pages_quarantined) << "round " << round;
    EXPECT_GE(quarantine_hits, prev.quarantine_hits) << "round " << round;
    EXPECT_GE(pages_restored, prev.pages_restored) << "round " << round;
    EXPECT_GE(degraded_rejects, prev.degraded_rejects) << "round " << round;
    EXPECT_GE(injected, prev.injected) << "round " << round;
  }
};

constexpr size_t kRegionPages = 64;
constexpr uint64_t kRounds = 200;

// The composed hostile schedule: overlapping windows over `kRounds` virtual
// ticks. Three unbounded faults are concurrently armed throughout the middle
// third; a short probability-1.0 tamper burst guarantees the quarantine path
// fires on every seed; extra seed-randomized windows vary the composition.
std::vector<sim::FaultPhase> HostileSchedule(uint64_t seed) {
  std::vector<sim::FaultPhase> sched = {
      {sim::Fault::kCiphertextFlip, 0.02, UINT64_MAX, kRounds / 8, kRounds},
      {sim::Fault::kRollback, 0.05, UINT64_MAX, kRounds / 4, 3 * kRounds / 4},
      {sim::Fault::kBackingAllocFail, 1.0, UINT64_MAX, kRounds / 3, kRounds / 2},
      {sim::Fault::kBackingAllocFail, 1.0, UINT64_MAX, 2 * kRounds / 3,
       5 * kRounds / 6},
      // Two rounds of certain tamper: any page-in double-fails -> quarantine.
      {sim::Fault::kCiphertextFlip, 1.0, UINT64_MAX, kRounds / 2,
       kRounds / 2 + 2},
  };
  Xoshiro256 rng(seed ^ 0x5c4eddu);
  // The crash-consistency faults ride along in the randomized windows. This
  // soak runs without crash_consistency, so their 2PC crash points never
  // arm-check — they exercise the scheduler (windows open/close, armed
  // tracking) without killing the instance; tests/crash_recovery_test.cc owns
  // the kill/restart semantics.
  const sim::Fault kPool[] = {sim::Fault::kCiphertextFlip, sim::Fault::kRollback,
                              sim::Fault::kBackingAllocFail,
                              sim::Fault::kHostCrash, sim::Fault::kTornWrite};
  for (int i = 0; i < 4; ++i) {
    const uint64_t start = rng.NextBelow(kRounds - 10);
    const uint64_t len = 2 + rng.NextBelow(kRounds / 4);
    sched.push_back({kPool[rng.NextBelow(5)],
                     0.01 + 0.29 * (rng.NextBelow(100) / 100.0), UINT64_MAX,
                     start, std::min(start + len, kRounds)});
  }
  return sched;
}

struct SoakDigest {
  uint64_t cycles = 0;
  uint64_t major_faults = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t shadow_hash = 0;
  CounterSnapshot counters;
};

// Field-by-field so a divergence names the field that moved (a bare
// EXPECT_TRUE(a == b) hides which of cycles/paging/bytes drifted).
void ExpectDigestsEqual(const SoakDigest& a, const SoakDigest& b,
                        const char* why) {
  EXPECT_EQ(a.cycles, b.cycles) << why;
  EXPECT_EQ(a.major_faults, b.major_faults) << why;
  EXPECT_EQ(a.evictions, b.evictions) << why;
  EXPECT_EQ(a.writebacks, b.writebacks) << why;
  EXPECT_EQ(a.shadow_hash, b.shadow_hash) << why;
  EXPECT_EQ(a.counters.mac_failures, b.counters.mac_failures) << why;
  EXPECT_EQ(a.counters.retries, b.counters.retries) << why;
  EXPECT_EQ(a.counters.injected, b.counters.injected) << why;
}

// One full shadow-model soak over a caller-owned machine (callers wanting
// span tracing enable it before the soak). `hostile` installs the composed
// schedule; `touch_harness` (benign runs only) still loads an empty
// schedule and advances virtual time every round, which must be invisible.
// (void-returning so ASSERT_* can abort the soak; result via `out`.)
void RunShadowSoak(sim::Machine& machine, uint64_t ops, uint64_t seed,
                   bool hostile, bool touch_harness, SoakDigest* out) {
  sim::Enclave enclave(machine);
  SuvmConfig cfg;
  cfg.epc_pp_pages = 16;  // working set is 4x the page cache: constant paging
  cfg.backing_bytes = 16 << 20;
  cfg.swapper_low_watermark = 0;
  cfg.alloc_failure_threshold = 4;
  cfg.alloc_probe_interval = 8;
  Suvm suvm(enclave, cfg);
  sim::FaultInjector& faults = machine.fault_injector();
  sim::CpuContext& cpu = machine.cpu(0);

  const uint64_t base =
      ValueOrThrow(suvm.Malloc(kRegionPages * sim::kPageSize));
  const uint64_t base_page = base / sim::kPageSize;
  std::vector<uint8_t> shadow(kRegionPages * sim::kPageSize, 0);

  uint64_t max_concurrent_armed = 0;
  if (hostile) {
    faults.LoadSchedule(HostileSchedule(seed));
  } else if (touch_harness) {
    faults.LoadSchedule({});  // armed-but-empty harness must be invisible
  }

  const uint64_t ops_per_round = std::max<uint64_t>(ops / kRounds, 1);
  Xoshiro256 rng(seed);
  std::vector<uint8_t> buf(512);
  uint64_t failed_reads = 0, failed_writes = 0, scratch_allocs = 0;
  CounterSnapshot prev = CounterSnapshot::Take(suvm, faults);

  enclave.Enter(cpu);
  for (uint64_t op = 0; op < ops; ++op) {
    if (op % ops_per_round == 0) {
      const uint64_t round = op / ops_per_round;
      if (hostile || touch_harness) {
        faults.AdvanceTime(round);
      }
      if (hostile) {
        const uint64_t armed = faults.armed(sim::Fault::kCiphertextFlip) +
                               faults.armed(sim::Fault::kRollback) +
                               faults.armed(sim::Fault::kBackingAllocFail);
        max_concurrent_armed = std::max(max_concurrent_armed, armed);
        const CounterSnapshot now = CounterSnapshot::Take(suvm, faults);
        now.ExpectMonotonicFrom(prev, round);
        EXPECT_GE(now.pages_quarantined, now.pages_restored) << "round " << round;
        prev = now;
      }
    }

    // Single-page ops keep success/failure atomic w.r.t. the shadow model.
    const uint64_t page = rng.NextBelow(kRegionPages);
    const uint64_t off = rng.NextBelow(sim::kPageSize - 1);
    const uint64_t len =
        1 + rng.NextBelow(std::min<uint64_t>(sim::kPageSize - off, buf.size()));
    const uint64_t addr = base + page * sim::kPageSize + off;
    const uint64_t shadow_off = page * sim::kPageSize + off;
    const bool is_write = rng.NextBelow(100) < 40;
    if (is_write) {
      rng.FillBytes(buf.data(), len);
      const Status status = suvm.Write(&cpu, addr, buf.data(), len);
      if (status.ok()) {
        std::memcpy(shadow.data() + shadow_off, buf.data(), len);
      } else {
        ASSERT_EQ(status.code(), StatusCode::kDataCorruption)
            << "op " << op << ": " << status.ToString();
        ++failed_writes;
      }
    } else {
      const Status status = suvm.Read(&cpu, addr, buf.data(), len);
      if (status.ok()) {
        ASSERT_EQ(std::memcmp(buf.data(), shadow.data() + shadow_off, len), 0)
            << "shadow divergence at op " << op << " page " << page;
      } else {
        ASSERT_EQ(status.code(), StatusCode::kDataCorruption)
            << "op " << op << ": " << status.ToString();
        ++failed_reads;
      }
    }

    // Periodic allocation pressure exercises the alloc-health FSM...
    if (op % 997 == 0) {
      const StatusOr<uint64_t> scratch = suvm.Malloc(4096);
      if (scratch.ok()) {
        ++scratch_allocs;
        suvm.Free(*scratch);
      } else {
        EXPECT_EQ(scratch.status().code(), StatusCode::kResourceExhausted);
      }
    }
    // ...and occasional mid-run restore attempts exercise the unpoison path
    // under ongoing tamper (either outcome is legal; invariants still hold).
    if (hostile && op % 2003 == 0 && suvm.IsQuarantined(base_page + page)) {
      const Status restored = suvm.TryRestorePage(&cpu, base_page + page);
      if (!restored.ok()) {
        EXPECT_EQ(restored.code(), StatusCode::kDataCorruption);
      }
    }
  }

  if (hostile) {
    // The hostile host relents: quarantined pages restore, the alloc FSM
    // probes closed, and the whole region matches the shadow byte-for-byte.
    faults.ClearSchedule();
    faults.DisarmAll();
    EXPECT_GE(max_concurrent_armed, 3u)
        << "schedule never composed three concurrent faults";
    EXPECT_GT(suvm.stats().mac_failures.load(), 0u);
    EXPECT_GT(suvm.stats().pages_quarantined.load(), 0u)
        << "the certain-tamper burst must quarantine at least one page";

    uint64_t restored = 0;
    for (uint64_t p = 0; p < kRegionPages; ++p) {
      if (suvm.IsQuarantined(base_page + p)) {
        ASSERT_TRUE(suvm.TryRestorePage(&cpu, base_page + p).ok())
            << "restore must succeed against a benign host (page " << p << ")";
        ++restored;
      }
    }
    for (int i = 0; i < 64 && suvm.alloc_health_state() != HealthState::kHealthy;
         ++i) {
      const StatusOr<uint64_t> probe = suvm.Malloc(4096);
      if (probe.ok()) {
        suvm.Free(*probe);
      }
    }
    EXPECT_EQ(suvm.alloc_health_state(), HealthState::kHealthy);
    std::vector<uint8_t> back(shadow.size());
    ASSERT_TRUE(suvm.Read(&cpu, base, back.data(), back.size()).ok());
    EXPECT_EQ(Fnv1a(back), Fnv1a(shadow)) << "post-recovery region differs";

    // The registry reads the authoritative counters in place.
    EXPECT_EQ(machine.metrics().CounterValue("suvm.pages_quarantined"),
              suvm.stats().pages_quarantined.load());
    EXPECT_EQ(machine.metrics().CounterValue("suvm.pages_restored"),
              suvm.stats().pages_restored.load());
    EXPECT_GE(suvm.stats().pages_restored.load(), restored);
  }
  enclave.Exit(cpu);

  out->cycles = cpu.clock.now();
  out->major_faults = suvm.stats().major_faults.load();
  out->evictions = suvm.stats().evictions.load();
  out->writebacks = suvm.stats().writebacks.load();
  out->shadow_hash = Fnv1a(shadow);
  out->counters = CounterSnapshot::Take(suvm, faults);
}

TEST(ChaosSoak, SuvmShadowModelSurvivesComposedFaultSchedule) {
  sim::Machine machine;
  // Post-mortem hook: a red soak leaves a flight bundle when
  // ELEOS_FLIGHT_DIR is set (tier1.sh / CI export it); free otherwise.
  sim::FlightOnFailure flight(machine, "chaos_soak_shadow",
                              [] { return ::testing::Test::HasFailure(); });
  SoakDigest digest;
  RunShadowSoak(machine, SoakOps(), SoakSeed(), /*hostile=*/true,
                /*touch_harness=*/true, &digest);
  // The schedule really fired, repeatedly, and the run still converged.
  EXPECT_GT(digest.counters.injected, 0u);
  EXPECT_GT(digest.counters.retries, 0u);
  EXPECT_GE(digest.counters.pages_quarantined, digest.counters.pages_restored);
}

TEST(ChaosSoak, SameSeedSameHostileRun) {
  // The whole point of the harness: a hostile soak is exactly reproducible.
  const uint64_t ops = std::min<uint64_t>(SoakOps(), 20000);
  SoakDigest a, b;
  sim::Machine ma, mb;
  RunShadowSoak(ma, ops, SoakSeed(), true, true, &a);
  RunShadowSoak(mb, ops, SoakSeed(), true, true, &b);
  ExpectDigestsEqual(a, b, "hostile soak diverged across identical runs");
}

TEST(ChaosSoak, BenignSeedIsByteIdenticalWithHarnessDisabled) {
  // An installed-but-empty schedule (plus AdvanceTime every round) must be
  // invisible: identical virtual cycles, paging behaviour, and bytes.
  const uint64_t ops = std::min<uint64_t>(SoakOps(), 20000);
  SoakDigest with, without;
  sim::Machine ma, mb;
  RunShadowSoak(ma, ops, SoakSeed(), false, true, &with);
  RunShadowSoak(mb, ops, SoakSeed(), false, false, &without);
  ExpectDigestsEqual(with, without, "the disarmed harness perturbed the run");
  EXPECT_EQ(with.counters.injected, 0u);
  EXPECT_EQ(with.counters.mac_failures, 0u);
  EXPECT_EQ(with.counters.pages_quarantined, 0u);
}

TEST(ChaosSoak, TracedSmokeSeedPassesCycleAudit) {
  // A short hostile soak with span tracing (audit mode) on from machine
  // construction: every categorized charge must land in the attribution
  // ledger, per category, exactly matching the sim.cycles.* totals. With
  // --trace-out=<path> (or ELEOS_TRACE_OUT) the run also exports its trace —
  // this is the chaos-soak harness's trace entry point.
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  sim::FlightOnFailure flight(machine, "chaos_soak_traced",
                              [] { return ::testing::Test::HasFailure(); });
  SoakDigest digest;
  RunShadowSoak(machine, /*ops=*/4000, SoakSeed(), /*hostile=*/true,
                /*touch_harness=*/true, &digest);
  EXPECT_GT(digest.counters.injected, 0u);

  const telemetry::SpanTracer& spans = machine.metrics().spans();
  EXPECT_EQ(spans.dropped(), 0u) << "smoke soak must fit the span buffers";
  EXPECT_EQ(spans.open_spans(), 0u);
  EXPECT_FALSE(spans.Snapshot().empty()) << "the soak pages constantly";
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;

  if (!g_trace_out.empty()) {
    std::ofstream chrome(g_trace_out);
    chrome << machine.ExportChromeTrace();
    std::ofstream folded(g_trace_out + ".folded");
    folded << machine.ExportFoldedStacks();
    ASSERT_TRUE(chrome.good() && folded.good())
        << "cannot write " << g_trace_out;
  }
}

TEST(ChaosSoak, KvCacheSurvivesTransientFaultSchedule) {
  // Application-level soak: a KvCache on SUVM runs through a schedule of
  // single-trigger tamper and rollback windows (each absorbed by the page-in
  // retry) while a reference map checks every answer. Flip and rollback
  // windows never overlap so no page-in can double-fail and poison the
  // cache's region mid-run.
  const uint64_t ops = std::max<uint64_t>(SoakOps() / 4, 2000);
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig sc;
  sc.epc_pp_pages = 16;
  sc.backing_bytes = 64 << 20;
  Suvm suvm(enclave, sc);
  apps::KvCache::Options opts;
  opts.pool_bytes = 24 << 20;
  opts.hash_buckets = 256;
  apps::SuvmRegion region(suvm, opts.pool_bytes);
  apps::KvCache cache(machine, region, opts);

  std::vector<sim::FaultPhase> sched;
  for (uint64_t w = 0; w < 20; ++w) {
    // Even windows: one in-flight tamper; odd windows: one stale-seal replay.
    sched.push_back({w % 2 == 0 ? sim::Fault::kCiphertextFlip
                                : sim::Fault::kRollback,
                     1.0, /*max_triggers=*/1, w * (kRounds / 20),
                     (w + 1) * (kRounds / 20)});
  }
  // Harmless to the cache (its region is pre-allocated) but keeps a third
  // fault armed alongside the active window.
  sched.push_back({sim::Fault::kBackingAllocFail, 1.0, UINT64_MAX, 0, kRounds});
  machine.fault_injector().LoadSchedule(sched);

  const uint64_t ops_per_round = std::max<uint64_t>(ops / kRounds, 1);
  std::unordered_map<std::string, std::string> reference;
  Xoshiro256 rng(SoakSeed() ^ 0x6b76);  // "kv"
  std::string out(4096, 0);
  for (uint64_t step = 0; step < ops; ++step) {
    if (step % ops_per_round == 0) {
      machine.fault_injector().AdvanceTime(step / ops_per_round);
    }
    const std::string key = "k" + std::to_string(rng.NextBelow(400));
    const uint64_t op = rng.NextBelow(100);
    if (op < 50) {
      std::string value(16 + rng.NextBelow(3000), 0);
      for (auto& c : value) {
        c = static_cast<char>('a' + rng.NextBelow(26));
      }
      ASSERT_TRUE(cache.Set(nullptr, key, value.data(), value.size()));
      reference[key] = value;
    } else if (op < 85) {
      const int64_t n = cache.Get(nullptr, key, out.data(), out.size());
      auto it = reference.find(key);
      ASSERT_EQ(n >= 0, it != reference.end()) << "step " << step;
      if (n >= 0) {
        ASSERT_EQ(out.substr(0, static_cast<size_t>(n)), it->second);
      }
    } else {
      const bool existed = reference.erase(key) > 0;
      ASSERT_EQ(cache.Delete(nullptr, key), existed);
    }
  }
  // Every injected fault was absorbed by exactly one retry; nothing poisoned.
  EXPECT_GT(suvm.stats().mac_failures.load(), 0u);
  EXPECT_EQ(suvm.stats().retries.load(), suvm.stats().mac_failures.load());
  EXPECT_EQ(suvm.stats().pages_quarantined.load(), 0u);

  // Final sweep: every key the reference still holds answers correctly.
  machine.fault_injector().ClearSchedule();
  for (const auto& [key, value] : reference) {
    const int64_t n = cache.Get(nullptr, key, out.data(), out.size());
    ASSERT_GE(n, 0) << key;
    ASSERT_EQ(out.substr(0, static_cast<size_t>(n)), value);
  }
}

}  // namespace
}  // namespace eleos::suvm

// Own main (instead of gtest_main) so the soak binary can take the trace
// destination on its command line; InitGoogleTest strips gtest flags first.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out = argv[++i];
    }
  }
  if (g_trace_out.empty()) {
    if (const char* env = std::getenv("ELEOS_TRACE_OUT");
        env != nullptr && *env != '\0') {
      g_trace_out = env;
    }
  }
  return RUN_ALL_TESTS();
}
