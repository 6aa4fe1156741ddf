// Copyright (c) Eleos reproduction authors. MIT license.
//
// Hostile-host fault injection against SUVM: ciphertext tampering, stale-seal
// rollback/replay, allocation refusal — and whole-application workloads that
// must keep running (or fail cleanly with Status + counters) under injected
// faults, yet stay byte-identical to the seed when injection is off.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/kvcache.h"
#include "src/apps/mem_region.h"
#include "src/apps/param_server.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "src/suvm/spointer.h"
#include "src/suvm/suvm.h"
#include "src/suvm/suvm_c.h"
#include "tests/test_status.h"

namespace eleos::suvm {
namespace {

struct World {
  explicit World(SuvmConfig cfg = {}) {
    machine = std::make_unique<sim::Machine>();
    enclave = std::make_unique<sim::Enclave>(*machine);
    suvm = std::make_unique<Suvm>(*enclave, cfg);
  }
  sim::FaultInjector& faults() { return machine->fault_injector(); }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<Suvm> suvm;
};

SuvmConfig TinyCfg(size_t pp_pages) {
  SuvmConfig cfg;
  cfg.epc_pp_pages = pp_pages;
  cfg.backing_bytes = 4 << 20;
  cfg.swapper_low_watermark = 0;
  return cfg;
}

// Writes a deterministic pattern across `pages` pages and returns it.
std::vector<uint8_t> FillPages(World& w, uint64_t addr, size_t pages,
                               uint64_t seed) {
  std::vector<uint8_t> data(pages * sim::kPageSize);
  Xoshiro256 rng(seed);
  rng.FillBytes(data.data(), data.size());
  EXPECT_OK(w.suvm->Write(nullptr, addr, data.data(), data.size()));
  return data;
}

TEST(FaultInjector, SameSeedSameDecisions) {
  sim::FaultInjector a(42), b(42);
  a.Arm(sim::Fault::kCiphertextFlip, 0.37);
  b.Arm(sim::Fault::kCiphertextFlip, 0.37);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.ShouldInject(sim::Fault::kCiphertextFlip),
              b.ShouldInject(sim::Fault::kCiphertextFlip));
  }
  EXPECT_EQ(a.injected(sim::Fault::kCiphertextFlip),
            b.injected(sim::Fault::kCiphertextFlip));
  EXPECT_EQ(a.checks(sim::Fault::kCiphertextFlip), 2000u);
  EXPECT_GT(a.injected(sim::Fault::kCiphertextFlip), 0u);
  EXPECT_LT(a.injected(sim::Fault::kCiphertextFlip), 2000u);
}

TEST(FaultInjector, EveryFaultHasAName) {
  for (uint32_t f = 0; f < static_cast<uint32_t>(sim::Fault::kCount); ++f) {
    const char* name = sim::FaultName(static_cast<sim::Fault>(f));
    EXPECT_STRNE(name, "unknown") << "Fault " << f << " missing a FaultName";
    EXPECT_STRNE(name, "") << "Fault " << f;
  }
}

TEST(FaultInjector, CrashFaultsArmAndFire) {
  sim::FaultInjector f(5);
  f.Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  f.Arm(sim::Fault::kTornWrite, 1.0);
  EXPECT_TRUE(f.armed(sim::Fault::kHostCrash));
  EXPECT_TRUE(f.ShouldInject(sim::Fault::kHostCrash));
  EXPECT_FALSE(f.ShouldInject(sim::Fault::kHostCrash));  // budget spent
  EXPECT_TRUE(f.ShouldInject(sim::Fault::kTornWrite));
}

TEST(FaultInjector, TriggerBudgetDisarms) {
  sim::FaultInjector f(7);
  f.Arm(sim::Fault::kWorkerDeath, 1.0, /*max_triggers=*/3);
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    fired += f.ShouldInject(sim::Fault::kWorkerDeath);
  }
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(f.armed(sim::Fault::kWorkerDeath));
}

// Every access path runs the same fault handler, so the single retry absorbs
// a transient flip on each of them: the bulk read, an spointer dereference
// and the C interface.
enum class ReadPath { kRead, kSpointer, kCApi };

class TransientCiphertextFlip : public ::testing::TestWithParam<ReadPath> {};

TEST_P(TransientCiphertextFlip, IsAbsorbedByRetry) {
  World w(TinyCfg(4));
  const size_t pages = 16;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(pages * sim::kPageSize));
  const std::vector<uint8_t> data = FillPages(w, addr, pages, 11);

  // Exactly one in-flight bit flip: the first page-in MAC-fails, the retry
  // sees clean bytes and succeeds.
  w.faults().Arm(sim::Fault::kCiphertextFlip, 1.0, /*max_triggers=*/1);
  std::vector<uint8_t> back(data.size());
  switch (GetParam()) {
    case ReadPath::kRead:
      ASSERT_OK(w.suvm->Read(nullptr, addr, back.data(), back.size()));
      break;
    case ReadPath::kSpointer: {
      spointer<uint8_t> p(w.suvm.get(), addr);
      ASSERT_NO_THROW(for (size_t i = 0; i < back.size(); ++i) {
        back[i] = p.GetAt(static_cast<ptrdiff_t>(i));
      });
      break;
    }
    case ReadPath::kCApi:
      ASSERT_EQ(suvm_get_bytes(suvm_ctx_from(w.suvm.get()), addr, back.data(),
                               back.size()),
                SUVM_OK);
      break;
  }
  EXPECT_EQ(back, data);
  EXPECT_EQ(w.suvm->stats().mac_failures.load(), 1u);
  EXPECT_EQ(w.suvm->stats().retries.load(), 1u);
  EXPECT_EQ(w.suvm->stats().rollbacks_detected.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SuvmFault, TransientCiphertextFlip,
    ::testing::Values(ReadPath::kRead, ReadPath::kSpointer, ReadPath::kCApi),
    [](const ::testing::TestParamInfo<ReadPath>& param_info) {
      switch (param_info.param) {
        case ReadPath::kRead:
          return "Read";
        case ReadPath::kSpointer:
          return "Spointer";
        case ReadPath::kCApi:
          return "CApi";
      }
      return "Unknown";
    });

TEST(SuvmFault, PersistentCorruptionSurfacesAsStatus) {
  World w(TinyCfg(4));
  const size_t pages = 16;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(pages * sim::kPageSize));
  const std::vector<uint8_t> data = FillPages(w, addr, pages, 12);

  // The host tampers on *every* read: the retry fails too.
  w.faults().Arm(sim::Fault::kCiphertextFlip, 1.0);
  std::vector<uint8_t> back(sim::kPageSize);
  const Status status =
      w.suvm->Read(nullptr, addr, back.data(), back.size());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataCorruption);
  EXPECT_GE(w.suvm->stats().mac_failures.load(), 2u);  // first try + retry
  EXPECT_EQ(w.suvm->stats().retries.load(), 1u);

  // The failed retry quarantined the page: further accesses fail fast with
  // the same status and pay no further crypto (mac_failures stays put).
  const uint64_t page = addr / sim::kPageSize;
  EXPECT_TRUE(w.suvm->IsQuarantined(page));
  EXPECT_EQ(w.suvm->stats().pages_quarantined.load(), 1u);
  const uint64_t mac_before = w.suvm->stats().mac_failures.load();
  const Status again =
      w.suvm->Read(nullptr, addr, back.data(), back.size());
  EXPECT_EQ(again.code(), StatusCode::kDataCorruption);
  EXPECT_EQ(w.suvm->stats().mac_failures.load(), mac_before);
  EXPECT_GE(w.suvm->stats().quarantine_hits.load(), 1u);

  // Tampering stops: the data was never actually destroyed (the flips were
  // in flight), but the quarantine holds until an explicit restore
  // re-verifies the sealed bytes.
  w.faults().DisarmAll();
  EXPECT_EQ(w.suvm->Read(nullptr, addr, back.data(), back.size()).code(),
            StatusCode::kDataCorruption);
  ASSERT_TRUE(w.suvm->TryRestorePage(nullptr, page).ok());
  EXPECT_FALSE(w.suvm->IsQuarantined(page));
  EXPECT_EQ(w.suvm->stats().pages_restored.load(), 1u);
  ASSERT_TRUE(w.suvm->Read(nullptr, addr, back.data(), back.size()).ok());
  std::vector<uint8_t> first_page(data.begin(), data.begin() + sim::kPageSize);
  EXPECT_EQ(back, first_page);
}

TEST(SuvmFault, TryRestorePageRequiresQuarantine) {
  World w(TinyCfg(4));
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  const uint64_t page = addr / sim::kPageSize;
  EXPECT_FALSE(w.suvm->IsQuarantined(page));
  EXPECT_EQ(w.suvm->TryRestorePage(nullptr, page).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SuvmFault, RestoreUnderOngoingTamperRequarantines) {
  World w(TinyCfg(4));
  const size_t pages = 16;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(pages * sim::kPageSize));
  FillPages(w, addr, pages, 14);
  const uint64_t page = addr / sim::kPageSize;

  w.faults().Arm(sim::Fault::kCiphertextFlip, 1.0);
  std::vector<uint8_t> back(sim::kPageSize);
  ASSERT_EQ(w.suvm->Read(nullptr, addr, back.data(), back.size()).code(),
            StatusCode::kDataCorruption);
  ASSERT_TRUE(w.suvm->IsQuarantined(page));
  EXPECT_EQ(w.suvm->stats().pages_quarantined.load(), 1u);

  // A restore attempted while the host is still tampering fails its
  // verification read and the page goes straight back into quarantine
  // (counted as a fresh quarantine event).
  EXPECT_EQ(w.suvm->TryRestorePage(nullptr, page).code(),
            StatusCode::kDataCorruption);
  EXPECT_TRUE(w.suvm->IsQuarantined(page));
  EXPECT_EQ(w.suvm->stats().pages_quarantined.load(), 2u);
  EXPECT_EQ(w.suvm->stats().pages_restored.load(), 0u);

  // Host relents: the restore verifies and lifts the quarantine for good.
  w.faults().DisarmAll();
  ASSERT_TRUE(w.suvm->TryRestorePage(nullptr, page).ok());
  EXPECT_FALSE(w.suvm->IsQuarantined(page));
  EXPECT_EQ(w.suvm->stats().pages_restored.load(), 1u);
  ASSERT_TRUE(w.suvm->Read(nullptr, addr, back.data(), back.size()).ok());
}

TEST(SuvmFault, RepeatedAllocRefusalDegradesRegionToReadMostly) {
  World w(TinyCfg(8));
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(4 * sim::kPageSize));
  const std::vector<uint8_t> data = FillPages(w, addr, 4, 31);

  // Three consecutive refusals leave the region healthy; the fourth trips
  // the allocation FSM.
  w.faults().Arm(sim::Fault::kBackingAllocFail, 1.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(w.suvm->alloc_health_state(), HealthState::kHealthy);
    EXPECT_EQ(w.suvm->Malloc(4096).status().code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(w.suvm->alloc_health_state(), HealthState::kDegraded);
  EXPECT_EQ(w.suvm->stats().alloc_failures.load(), 4u);

  // Degraded = read-mostly: new allocations are rejected up front without a
  // host round-trip (the injection point is never even consulted), while
  // existing pages stay fully readable and writable.
  const uint64_t checks = w.faults().checks(sim::Fault::kBackingAllocFail);
  const StatusOr<uint64_t> denied = w.suvm->Malloc(4096);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(w.faults().checks(sim::Fault::kBackingAllocFail), checks);
  EXPECT_EQ(w.suvm->stats().degraded_rejects.load(), 1u);
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(w.suvm->Read(nullptr, addr, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  ASSERT_TRUE(w.suvm->Write(nullptr, addr, data.data(), 64).ok());

  // Host relents: the 16th attempt after the trip is a real probe of the
  // host, and its success closes the FSM. Attempts 2-15 are still rejected.
  w.faults().DisarmAll();
  for (int attempt = 2; attempt < 16; ++attempt) {
    EXPECT_EQ(w.suvm->Malloc(4096).status().code(),
              StatusCode::kResourceExhausted)
        << "attempt " << attempt;
  }
  EXPECT_EQ(w.suvm->stats().degraded_rejects.load(), 15u);
  EXPECT_EQ(w.suvm->alloc_health_state(), HealthState::kDegraded);
  ASSERT_TRUE(w.suvm->Malloc(4096).ok()) << "the probe reaches the host";
  EXPECT_EQ(w.suvm->alloc_health_state(), HealthState::kHealthy);
  EXPECT_EQ(w.suvm->stats().degraded_rejects.load(), 15u);
  EXPECT_EQ(w.suvm->stats().alloc_failures.load(), 4u);
  ASSERT_TRUE(w.suvm->Malloc(4096).ok()) << "fully healthy again";
}

TEST(FaultInjector, ScheduleArmsAndDisarmsByVirtualTime) {
  sim::FaultInjector f(21);
  f.LoadSchedule({
      {sim::Fault::kQueueFull, 1.0, UINT64_MAX, 10, 20},
      {sim::Fault::kCiphertextFlip, 1.0, /*max_triggers=*/3, 15, 25},
  });
  EXPECT_EQ(f.schedule_size(), 2u);
  EXPECT_EQ(f.active_phases(), 0u);
  EXPECT_FALSE(f.armed(sim::Fault::kQueueFull));

  f.AdvanceTime(10);
  EXPECT_TRUE(f.armed(sim::Fault::kQueueFull));
  EXPECT_FALSE(f.armed(sim::Fault::kCiphertextFlip));
  f.AdvanceTime(15);
  EXPECT_EQ(f.active_phases(), 2u);

  // Burn one trigger, leave the window, come back: the remaining budget
  // survives the deactivation.
  EXPECT_TRUE(f.ShouldInject(sim::Fault::kCiphertextFlip));
  f.AdvanceTime(30);
  EXPECT_EQ(f.active_phases(), 0u);
  EXPECT_FALSE(f.ShouldInject(sim::Fault::kCiphertextFlip));
  f.AdvanceTime(16);  // the clock belongs to the caller: rewind is legal
  EXPECT_TRUE(f.ShouldInject(sim::Fault::kCiphertextFlip));
  EXPECT_TRUE(f.ShouldInject(sim::Fault::kCiphertextFlip));
  EXPECT_FALSE(f.ShouldInject(sim::Fault::kCiphertextFlip)) << "budget spent";

  f.ClearSchedule();
  EXPECT_EQ(f.schedule_size(), 0u);
  EXPECT_FALSE(f.armed(sim::Fault::kQueueFull));
}

TEST(FaultInjector, ScheduleIsDeterministicAcrossInstances) {
  sim::FaultInjector a(77), b(77);
  const std::vector<sim::FaultPhase> sched = {
      {sim::Fault::kQueueFull, 0.3, UINT64_MAX, 0, 50},
      {sim::Fault::kCiphertextFlip, 0.5, UINT64_MAX, 25, 75},
  };
  a.LoadSchedule(sched);
  b.LoadSchedule(sched);
  for (uint64_t t = 0; t < 100; ++t) {
    a.AdvanceTime(t);
    b.AdvanceTime(t);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(a.ShouldInject(sim::Fault::kQueueFull),
                b.ShouldInject(sim::Fault::kQueueFull));
      EXPECT_EQ(a.ShouldInject(sim::Fault::kCiphertextFlip),
                b.ShouldInject(sim::Fault::kCiphertextFlip));
    }
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
  EXPECT_GT(a.total_injected(), 0u);
}

TEST(SuvmFault, RollbackReplayIsDetectedAndClassified) {
  World w(TinyCfg(4));
  const size_t pages = 16;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(pages * sim::kPageSize));
  FillPages(w, addr, pages, 13);  // v1 everywhere; pages 0..11 get evicted

  // Arm the rollback before the reseal so the hostile host stashes the
  // outgoing (v1) seal of page 0 when v2 is written back.
  w.faults().Arm(sim::Fault::kRollback, 1.0, /*max_triggers=*/1);
  std::vector<uint8_t> v2(sim::kPageSize, 0x5a);
  ASSERT_OK(w.suvm->Write(nullptr, addr, v2.data(), v2.size()));
  // Force page 0 out so it is resealed (stash point) and must be re-opened.
  std::vector<uint8_t> scratch(sim::kPageSize);
  for (size_t p = 1; p < pages; ++p) {
    ASSERT_OK(w.suvm->Read(nullptr, addr + p * sim::kPageSize, scratch.data(),
                           scratch.size()));
  }

  // Page-in of page 0 gets the replayed v1 seal: the enclave-held nonce/tag
  // bind the address to the newest seal, so the MAC fails — freshness holds.
  std::vector<uint8_t> back(sim::kPageSize);
  const Status status =
      w.suvm->Read(nullptr, addr, back.data(), back.size());
  ASSERT_TRUE(status.ok()) << status.ToString();  // single trigger: retry wins
  EXPECT_EQ(back, v2) << "replayed stale data must never be accepted";
  EXPECT_GE(w.suvm->stats().rollbacks_detected.load(), 1u);
  EXPECT_GE(w.suvm->stats().mac_failures.load(), 1u);
  EXPECT_GE(w.suvm->stats().retries.load(), 1u);
}

TEST(SuvmFault, AllocRefusalAndArenaExhaustion) {
  World w(TinyCfg(8));

  w.faults().Arm(sim::Fault::kBackingAllocFail, 1.0, /*max_triggers=*/1);
  const StatusOr<uint64_t> refused = w.suvm->Malloc(4096);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(w.suvm->stats().alloc_failures.load(), 1u);

  // Budget spent: the next allocation succeeds.
  const StatusOr<uint64_t> granted = w.suvm->Malloc(4096);
  ASSERT_TRUE(granted.ok());
  EXPECT_NE(*granted, kInvalidAddr);

  // Genuine arena exhaustion takes the same Status path.
  const StatusOr<uint64_t> huge = w.suvm->Malloc(1ull << 40);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(w.suvm->stats().alloc_failures.load(), 2u);
}

TEST(SuvmFault, EpcExhaustionIsRecoverable) {
  World w(TinyCfg(2));  // two EPC++ slots
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(4 * sim::kPageSize));
  int s0 = -1, s1 = -1, s2 = -1;
  ASSERT_TRUE(w.suvm->PinPage(nullptr, addr / sim::kPageSize, &s0).ok());
  ASSERT_TRUE(w.suvm->PinPage(nullptr, addr / sim::kPageSize + 1, &s1).ok());
  // Every slot pinned: the third pin must fail cleanly, not deadlock.
  const Status status =
      w.suvm->PinPage(nullptr, addr / sim::kPageSize + 2, &s2);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Releasing a pin makes the same pin succeed.
  w.suvm->UnpinPage(addr / sim::kPageSize, s0, /*dirty=*/false);
  ASSERT_TRUE(w.suvm->PinPage(nullptr, addr / sim::kPageSize + 2, &s2).ok());
  w.suvm->UnpinPage(addr / sim::kPageSize + 1, s1, /*dirty=*/false);
  w.suvm->UnpinPage(addr / sim::kPageSize + 2, s2, /*dirty=*/false);
}

TEST(SuvmFault, DirectModeFlipIsRetriedAndCounted) {
  SuvmConfig cfg = TinyCfg(4);
  cfg.direct_mode = true;
  World w(cfg);
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(8 * sim::kPageSize));
  std::vector<uint8_t> data(2048, 0xc3);
  ASSERT_OK(w.suvm->WriteDirect(nullptr, addr, data.data(), data.size()));

  w.faults().Arm(sim::Fault::kCiphertextFlip, 1.0, /*max_triggers=*/1);
  std::vector<uint8_t> back(data.size());
  const Status status =
      w.suvm->ReadDirect(nullptr, addr, back.data(), back.size());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(back, data);
  EXPECT_EQ(w.suvm->stats().mac_failures.load(), 1u);
  EXPECT_EQ(w.suvm->stats().retries.load(), 1u);
}

// --- Application workloads under injected faults ---

TEST(WorkloadFault, KvCacheOnSuvmSurvivesBoundedTransientFaults) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig sc;
  sc.epc_pp_pages = 16;  // heavy paging: working set >> EPC++
  sc.backing_bytes = 64 << 20;
  Suvm suvm(enclave, sc);
  apps::KvCache::Options opts;
  opts.pool_bytes = 24 << 20;  // room for one 1 MiB slab per touched class
  opts.hash_buckets = 256;
  apps::SuvmRegion region(suvm, opts.pool_bytes);
  apps::KvCache cache(machine, region, opts);

  std::unordered_map<std::string, std::string> reference;
  Xoshiro256 rng(99);
  std::string out(4096, 0);
  for (int step = 0; step < 2000; ++step) {
    if (step % 200 == 0) {
      // Periodic single-shot in-flight tamper: each one MAC-fails exactly one
      // page-in, and the fault-handler retry absorbs it.
      machine.fault_injector().Arm(sim::Fault::kCiphertextFlip, 1.0,
                                   /*max_triggers=*/1);
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
  // The workload really did run through injected faults — and recovered.
  EXPECT_GT(suvm.stats().mac_failures.load(), 0u);
  EXPECT_EQ(suvm.stats().retries.load(), suvm.stats().mac_failures.load());
}

TEST(WorkloadFault, ParamServerOnSuvmCompletesUnderInjection) {
  sim::Machine machine;
  apps::PsConfig cfg;
  cfg.backend = apps::PsBackend::kSuvm;
  cfg.mode = apps::PsExecMode::kSgxRpc;
  cfg.data_bytes = 1 << 20;
  cfg.suvm.epc_pp_pages = 32;
  cfg.suvm.backing_bytes = 4 << 20;
  cfg.suvm.swapper_low_watermark = 0;
  // One in-flight tamper somewhere in the run; the server must finish all
  // requests and answer them correctly regardless.
  machine.fault_injector().Arm(sim::Fault::kCiphertextFlip, 1.0,
                               /*max_triggers=*/1);
  const apps::PsRunResult r =
      apps::RunPsWorkload(machine, cfg, /*updates_per_request=*/8,
                          /*hot_keys=*/64, /*n_requests=*/300);
  EXPECT_EQ(r.requests, 300u);
  EXPECT_GT(r.total_cycles, 0u);
}

TEST(WorkloadFault, DisabledInjectionIsByteIdenticalToSeedBehavior) {
  // The fault machinery must be invisible when disarmed: two fresh machines
  // running the same workload produce identical virtual-cycle results, and
  // no fault counter moves.
  apps::PsConfig cfg;
  cfg.backend = apps::PsBackend::kSuvm;
  cfg.mode = apps::PsExecMode::kSgxRpc;
  cfg.data_bytes = 1 << 20;
  cfg.suvm.epc_pp_pages = 32;
  cfg.suvm.backing_bytes = 4 << 20;
  cfg.suvm.swapper_low_watermark = 0;

  sim::Machine m1, m2;
  const apps::PsRunResult r1 = apps::RunPsWorkload(m1, cfg, 8, 64, 200);
  const apps::PsRunResult r2 = apps::RunPsWorkload(m2, cfg, 8, 64, 200);
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);
  EXPECT_EQ(r1.handler_cycles, r2.handler_cycles);
  EXPECT_EQ(r1.requests, r2.requests);
  EXPECT_EQ(m1.fault_injector().total_injected(), 0u);
}

}  // namespace
}  // namespace eleos::suvm
