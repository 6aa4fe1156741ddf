// Copyright (c) Eleos reproduction authors. MIT license.
//
// Crash-consistent SUVM: sealed checkpoint/restore, write-ahead journal
// replay, and a deterministic kill/restart recovery soak.
//
// The simulated "host process" dies at injector-chosen points inside the
// two-phase-commit seal path (kHostCrash; kTornWrite garbles the write in
// flight). The enclave instance is then dead — every entry point fails with
// kUnavailable — and the harness recovers into a *fresh* Suvm built over the
// surviving untrusted arena + journal, authenticated by the sealed root from
// the last checkpoint. Invariants per recovery:
//
//  * every non-quarantined page is byte-identical to SOME write-boundary
//    state the shadow model recorded (pages resident at the crash revert to
//    their last sealed version — that version was a write boundary);
//  * quarantined pages fail closed: reads/writes return kDataCorruption;
//  * a rolled-back (stale-but-genuine) root is rejected with
//    kRollbackDetected, never silently accepted;
//  * with span tracing on, Machine::AuditSpanAccounting stays balanced
//    through checkpoint/replay/recovery spans.
//
// Scale knobs (scripts/soak.sh runs the long version):
//   ELEOS_CRASH_SOAK_OPS   ops per soak round     (default 4000)
//   ELEOS_CRASH_SOAK_SEED  soak seed override     (default: the TEST_P seed)

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"
#include "src/telemetry/telemetry.h"

namespace eleos::suvm {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

constexpr size_t kRegionPages = 24;
constexpr size_t kRegionBytes = kRegionPages * sim::kPageSize;

SuvmConfig CrashCfg() {
  SuvmConfig cfg;
  cfg.epc_pp_pages = 8;  // small cache: evictions (and thus 2PC seals) are hot
  cfg.backing_bytes = 1 << 20;
  cfg.swapper_low_watermark = 0;
  cfg.crash_consistency = true;
  return cfg;
}

// One enclave incarnation: the machine (platform: driver, monotonic counter,
// fault injector) outlives it, the Suvm + its enclave die with it.
struct Incarnation {
  Incarnation(sim::Machine& machine, std::shared_ptr<BackingStore> store)
      : enclave(std::make_unique<sim::Enclave>(machine)),
        suvm(std::make_unique<Suvm>(*enclave, CrashCfg(), std::move(store))) {}
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<Suvm> suvm;
};

uint64_t HashPage(const uint8_t* data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < sim::kPageSize; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ull;
  }
  return h;
}

void FillPattern(std::vector<uint8_t>* buf, uint64_t tag) {
  Xoshiro256 rng(tag * 0x9e3779b97f4a7c15ull + 1);
  for (auto& b : *buf) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
}

TEST(CrashRecovery, CheckpointRestoreRoundTrip) {
  sim::Machine machine;
  auto first = std::make_unique<Incarnation>(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(first->suvm->Malloc(kRegionBytes));

  std::vector<uint8_t> page(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(
        first->suvm->Write(&cpu, base + p * sim::kPageSize, page.data(),
                           page.size())
            .ok());
  }
  StatusOr<sim::SgxDriver::SealedBlob> root = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(first->suvm->stats().checkpoints.load(), 1u);

  // "Restart": fresh enclave + Suvm over the surviving arena.
  std::shared_ptr<BackingStore> store = first->suvm->shared_backing_store();
  first.reset();
  Incarnation second(machine, store);
  Suvm::RecoveryReport report;
  const Status status = second.suvm->TryRecover(&cpu, *root, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.pages_verified, kRegionPages);
  EXPECT_EQ(report.pages_quarantined, 0u);
  EXPECT_FALSE(report.degraded);

  std::vector<uint8_t> got(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(second.suvm
                    ->Read(&cpu, base + p * sim::kPageSize, got.data(),
                           got.size())
                    .ok());
    EXPECT_EQ(std::memcmp(got.data(), page.data(), page.size()), 0)
        << "page " << p;
  }
}

TEST(CrashRecovery, CheckpointRequiresCrashConsistency) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  Suvm suvm(enclave, SuvmConfig{});  // crash_consistency off
  sim::CpuContext& cpu = machine.cpu(0);
  EXPECT_EQ(suvm.SealCheckpoint(&cpu).status().code(),
            StatusCode::kFailedPrecondition);
  Suvm::RecoveryReport report;
  EXPECT_EQ(suvm.TryRecover(&cpu, sim::SgxDriver::SealedBlob{}, &report).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CrashRecovery, CrashConsistencyRejectsDirectMode) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig cfg = CrashCfg();
  cfg.direct_mode = true;
  EXPECT_THROW(Suvm(enclave, cfg), std::invalid_argument);
}

TEST(CrashRecovery, RecoverRequiresFreshInstance) {
  sim::Machine machine;
  Incarnation inc(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(inc.suvm->Malloc(sim::kPageSize));
  const uint32_t v = 42;
  ASSERT_TRUE(inc.suvm->Write(&cpu, base, &v, sizeof(v)).ok());
  StatusOr<sim::SgxDriver::SealedBlob> root = inc.suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root.ok());
  Suvm::RecoveryReport report;
  EXPECT_EQ(inc.suvm->TryRecover(&cpu, *root, &report).code(),
            StatusCode::kFailedPrecondition)
      << "an instance with live page-table entries must refuse recovery";
}

TEST(CrashRecovery, CrashedInstanceFailsEveryEntryPoint) {
  sim::Machine machine;
  Incarnation inc(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(inc.suvm->Malloc(kRegionBytes));

  machine.fault_injector().Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  // Writes force evictions (cache is 8 pages, region 24): the first
  // journaled seal hits the armed crash point.
  std::vector<uint8_t> page(sim::kPageSize, 0x5a);
  Status status = Status::Ok();
  for (size_t p = 0; p < kRegionPages && status.ok(); ++p) {
    status = inc.suvm->Write(&cpu, base + p * sim::kPageSize, page.data(),
                             page.size());
  }
  ASSERT_TRUE(inc.suvm->crashed());
  ASSERT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(inc.suvm->stats().host_crashes.load(), 1u);

  uint8_t byte = 0;
  EXPECT_EQ(inc.suvm->Read(&cpu, base, &byte, 1).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(inc.suvm->Malloc(64).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(inc.suvm->SealCheckpoint(&cpu).status().code(),
            StatusCode::kUnavailable);
  Suvm::RecoveryReport report;
  EXPECT_EQ(inc.suvm->TryRecover(&cpu, sim::SgxDriver::SealedBlob{}, &report)
                .code(),
            StatusCode::kUnavailable);
}

TEST(CrashRecovery, CrashMidEvictionRecoversFromJournal) {
  sim::Machine machine;
  auto first = std::make_unique<Incarnation>(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(first->suvm->Malloc(kRegionBytes));

  std::vector<uint8_t> page(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(first->suvm
                    ->Write(&cpu, base + p * sim::kPageSize, page.data(),
                            page.size())
                    .ok());
  }
  StatusOr<sim::SgxDriver::SealedBlob> root = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root.ok());

  // Overwrite page 3 and push it out through an (unarmed) eviction wave:
  // those journaled seals append + commit and survive until the next
  // checkpoint, so recovery must replay them. Only then arm the crash — with
  // p=1 it fires at the very first journal window of the second wave, before
  // that wave writes anything.
  FillPattern(&page, 1003);
  ASSERT_TRUE(first->suvm
                  ->Write(&cpu, base + 3 * sim::kPageSize, page.data(),
                          page.size())
                  .ok());
  std::vector<uint8_t> scratch(sim::kPageSize, 0x11);
  for (size_t p = 0; p < kRegionPages; ++p) {
    ASSERT_TRUE(first->suvm
                    ->Write(&cpu, base + p * sim::kPageSize, scratch.data(),
                            scratch.size())
                    .ok());
  }
  ASSERT_GT(first->suvm->stats().journal_commits.load(), 0u);
  machine.fault_injector().Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  for (size_t p = 0; p < kRegionPages && !first->suvm->crashed(); ++p) {
    (void)first->suvm->Write(&cpu, base + p * sim::kPageSize,
                             scratch.data(), scratch.size());
  }
  ASSERT_TRUE(first->suvm->crashed());

  std::shared_ptr<BackingStore> store = first->suvm->shared_backing_store();
  first.reset();
  Incarnation second(machine, store);
  Suvm::RecoveryReport report;
  const Status status = second.suvm->TryRecover(&cpu, *root, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.pages_quarantined, 0u);
  EXPECT_GT(report.journal_replayed + report.journal_stale, 0u)
      << "post-checkpoint seals must have journaled";

  // Every page must read back as one of its write-boundary states; pages the
  // crash caught resident legitimately revert to their last sealed version.
  std::vector<uint8_t> got(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    ASSERT_TRUE(second.suvm
                    ->Read(&cpu, base + p * sim::kPageSize, got.data(),
                           got.size())
                    .ok())
        << "page " << p;
    std::set<uint64_t> valid;
    FillPattern(&page, p);
    valid.insert(HashPage(page.data()));
    if (p == 3) {
      FillPattern(&page, 1003);
      valid.insert(HashPage(page.data()));
    }
    valid.insert(HashPage(scratch.data()));
    EXPECT_TRUE(valid.count(HashPage(got.data())) == 1) << "page " << p;
  }
}

TEST(CrashRecovery, TornJournalRecordIsDiscarded) {
  sim::Machine machine;
  auto first = std::make_unique<Incarnation>(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(first->suvm->Malloc(kRegionBytes));

  std::vector<uint8_t> page(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(first->suvm
                    ->Write(&cpu, base + p * sim::kPageSize, page.data(),
                            page.size())
                    .ok());
  }
  StatusOr<sim::SgxDriver::SealedBlob> root = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root.ok());

  // Crash at phase 1 (the injector's first crash point) with kTornWrite
  // armed: a garbled journal record lands. Replay must discard it by CRC and
  // fall back to the checkpoint state for that page.
  machine.fault_injector().Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  machine.fault_injector().Arm(sim::Fault::kTornWrite, 1.0);
  std::vector<uint8_t> scratch(sim::kPageSize, 0x77);
  for (size_t p = 0; p < kRegionPages && !first->suvm->crashed(); ++p) {
    (void)first->suvm->Write(&cpu, base + p * sim::kPageSize,
                             scratch.data(), scratch.size());
  }
  ASSERT_TRUE(first->suvm->crashed());

  std::shared_ptr<BackingStore> store = first->suvm->shared_backing_store();
  first.reset();
  Incarnation second(machine, store);
  Suvm::RecoveryReport report;
  const Status status = second.suvm->TryRecover(&cpu, *root, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(report.journal_torn, 1u);
  EXPECT_EQ(report.pages_quarantined, 0u);

  // All pages verify and read back their checkpoint state (the torn record
  // carried the only post-checkpoint change).
  std::vector<uint8_t> got(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(second.suvm
                    ->Read(&cpu, base + p * sim::kPageSize, got.data(),
                           got.size())
                    .ok());
    EXPECT_EQ(std::memcmp(got.data(), page.data(), page.size()), 0)
        << "page " << p;
  }
}

TEST(CrashRecovery, AllCrashWindowsExercised) {
  // Property: across seeds, a probabilistic crash schedule hits every 2PC
  // window (1 = journal append, 2 = in-place write, 3 = commit mark). The
  // trace ring records the window index in kSuvmHostCrash's arg0.
  std::set<uint64_t> windows;
  for (uint64_t seed = 1; seed <= 24 && windows.size() < 3; ++seed) {
    sim::MachineConfig mcfg;
    mcfg.fault_seed = seed;
    sim::Machine machine(mcfg);
    Incarnation inc(machine, nullptr);
    sim::CpuContext& cpu = machine.cpu(0);
    const uint64_t base = ValueOrThrow(inc.suvm->Malloc(kRegionBytes));
    machine.fault_injector().Arm(sim::Fault::kHostCrash, 0.5,
                                 /*max_triggers=*/1);
    std::vector<uint8_t> page(sim::kPageSize, 0x42);
    for (int pass = 0; pass < 8 && !inc.suvm->crashed(); ++pass) {
      for (size_t p = 0; p < kRegionPages && !inc.suvm->crashed(); ++p) {
        page[0] = static_cast<uint8_t>(pass);
        (void)inc.suvm->Write(&cpu, base + p * sim::kPageSize, page.data(),
                              page.size());
      }
    }
    for (const telemetry::TraceEvent& e :
         machine.metrics().trace().Snapshot()) {
      if (e.kind == telemetry::TraceKind::kSuvmHostCrash) {
        windows.insert(e.arg0);
      }
    }
  }
  EXPECT_EQ(windows, (std::set<uint64_t>{1, 2, 3}))
      << "every 2PC window must be reachable by the crash injector";
}

TEST(CrashRecovery, RollbackDetectedOnStaleRoot) {
  sim::Machine machine;
  auto first = std::make_unique<Incarnation>(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(first->suvm->Malloc(kRegionBytes));

  std::vector<uint8_t> page(sim::kPageSize);
  FillPattern(&page, 1);
  ASSERT_TRUE(first->suvm->Write(&cpu, base, page.data(), page.size()).ok());
  StatusOr<sim::SgxDriver::SealedBlob> root_a = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root_a.ok());
  FillPattern(&page, 2);
  ASSERT_TRUE(first->suvm->Write(&cpu, base, page.data(), page.size()).ok());
  StatusOr<sim::SgxDriver::SealedBlob> root_b = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root_b.ok());

  std::shared_ptr<BackingStore> store = first->suvm->shared_backing_store();
  first.reset();
  Incarnation second(machine, store);
  Suvm::RecoveryReport report;
  // The hostile host replays the older (still authentic) root A: the platform
  // counter has moved past its freshness stamp, so this is a rollback.
  EXPECT_EQ(second.suvm->TryRecover(&cpu, *root_a, &report).code(),
            StatusCode::kRollbackDetected);
  EXPECT_EQ(second.suvm->stats().recovery_rollbacks.load(), 1u);
  // The instance is still fresh (nothing was installed): the genuine newest
  // root recovers it.
  const Status status = second.suvm->TryRecover(&cpu, *root_b, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<uint8_t> got(sim::kPageSize);
  FillPattern(&page, 2);
  ASSERT_TRUE(second.suvm->Read(&cpu, base, got.data(), got.size()).ok());
  EXPECT_EQ(std::memcmp(got.data(), page.data(), page.size()), 0);
}

TEST(CrashRecovery, JournalReplayIsIdempotent) {
  sim::Machine machine;
  auto first = std::make_unique<Incarnation>(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(first->suvm->Malloc(kRegionBytes));

  std::vector<uint8_t> page(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(first->suvm
                    ->Write(&cpu, base + p * sim::kPageSize, page.data(),
                            page.size())
                    .ok());
  }
  StatusOr<sim::SgxDriver::SealedBlob> root = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root.ok());
  machine.fault_injector().Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  std::vector<uint8_t> scratch(sim::kPageSize, 0x33);
  for (size_t p = 0; p < kRegionPages && !first->suvm->crashed(); ++p) {
    (void)first->suvm->Write(&cpu, base + p * sim::kPageSize,
                             scratch.data(), scratch.size());
  }
  ASSERT_TRUE(first->suvm->crashed());
  std::shared_ptr<BackingStore> store = first->suvm->shared_backing_store();
  first.reset();

  // Recover twice over the same arena + root (two fresh instances). Replay
  // decisions are version-gated against the root, not arena state, so both
  // recoveries converge to the same report and the same bytes.
  Incarnation a(machine, store);
  Suvm::RecoveryReport report_a;
  ASSERT_TRUE(a.suvm->TryRecover(&cpu, *root, &report_a).ok());
  Incarnation b(machine, store);
  Suvm::RecoveryReport report_b;
  ASSERT_TRUE(b.suvm->TryRecover(&cpu, *root, &report_b).ok());

  EXPECT_EQ(report_a.pages_verified, report_b.pages_verified);
  EXPECT_EQ(report_a.pages_quarantined, report_b.pages_quarantined);
  EXPECT_EQ(report_a.journal_replayed, report_b.journal_replayed);
  EXPECT_EQ(report_a.journal_torn, report_b.journal_torn);
  EXPECT_EQ(report_a.journal_stale, report_b.journal_stale);

  std::vector<uint8_t> got_a(sim::kPageSize), got_b(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    ASSERT_TRUE(a.suvm
                    ->Read(&cpu, base + p * sim::kPageSize, got_a.data(),
                           got_a.size())
                    .ok());
    ASSERT_TRUE(b.suvm
                    ->Read(&cpu, base + p * sim::kPageSize, got_b.data(),
                           got_b.size())
                    .ok());
    EXPECT_EQ(std::memcmp(got_a.data(), got_b.data(), sim::kPageSize), 0)
        << "page " << p;
  }
}

TEST(CrashRecovery, QuarantinedPageFailsClosedAfterRecovery) {
  sim::Machine machine;
  auto first = std::make_unique<Incarnation>(machine, nullptr);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(first->suvm->Malloc(kRegionBytes));

  std::vector<uint8_t> page(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    FillPattern(&page, p);
    ASSERT_TRUE(first->suvm
                    ->Write(&cpu, base + p * sim::kPageSize, page.data(),
                            page.size())
                    .ok());
  }
  StatusOr<sim::SgxDriver::SealedBlob> root = first->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root.ok());

  std::shared_ptr<BackingStore> store = first->suvm->shared_backing_store();
  first.reset();
  // Permanent arena corruption (not the transient in-flight kind): the host
  // scribbled over page 5's ciphertext while the enclave was down.
  const uint64_t victim_page = (base + 5 * sim::kPageSize) / sim::kPageSize;
  store->Raw(victim_page * sim::kPageSize)[100] ^= 0xff;

  Incarnation second(machine, store);
  Suvm::RecoveryReport report;
  const Status status = second.suvm->TryRecover(&cpu, *root, &report);
  ASSERT_TRUE(status.ok()) << "partial recovery must not fail wholesale: "
                           << status.ToString();
  EXPECT_EQ(report.pages_quarantined, 1u);
  EXPECT_EQ(report.pages_verified, kRegionPages - 1);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(second.suvm->alloc_health_state(), HealthState::kDegraded);

  std::vector<uint8_t> got(sim::kPageSize);
  for (size_t p = 0; p < kRegionPages; ++p) {
    const Status read = second.suvm->Read(&cpu, base + p * sim::kPageSize,
                                          got.data(), got.size());
    if (p == 5) {
      EXPECT_EQ(read.code(), StatusCode::kDataCorruption)
          << "quarantined page must fail closed";
    } else {
      ASSERT_TRUE(read.ok()) << "page " << p;
      FillPattern(&page, p);
      EXPECT_EQ(std::memcmp(got.data(), page.data(), page.size()), 0)
          << "page " << p;
    }
  }
  // Degraded read-mostly: new allocations fail fast.
  EXPECT_EQ(second.suvm->Malloc(64).status().code(),
            StatusCode::kResourceExhausted);
}

// --- The kill/restart recovery soak ---

class CrashSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashSoak, KillRestartRoundsConvergeToShadow) {
  const uint64_t seed = EnvU64("ELEOS_CRASH_SOAK_SEED", GetParam());
  const uint64_t total_ops =
      std::max<uint64_t>(EnvU64("ELEOS_CRASH_SOAK_OPS", 4000), 500);

  sim::MachineConfig mcfg;
  mcfg.fault_seed = seed ^ 0xc4a5c0ull;
  sim::Machine machine(mcfg);
  machine.EnableTracing(/*audit=*/true);
  sim::CpuContext& cpu = machine.cpu(0);

  auto inc = std::make_unique<Incarnation>(machine, nullptr);
  const uint64_t base = ValueOrThrow(inc->suvm->Malloc(kRegionBytes));

  // Shadow model: current expected bytes, plus per-page sets of every
  // write-boundary state hash (a page recovered from an older seal must
  // match one of them; ops are single-chunk within one page, so every seal
  // boundary coincides with a write boundary).
  std::vector<uint8_t> shadow(kRegionBytes, 0);
  std::vector<std::unordered_set<uint64_t>> history(kRegionPages);
  for (size_t p = 0; p < kRegionPages; ++p) {
    history[p].insert(HashPage(shadow.data() + p * sim::kPageSize));
  }
  std::unordered_set<uint64_t> quarantined;  // page indices that fail closed

  StatusOr<sim::SgxDriver::SealedBlob> root0 = inc->suvm->SealCheckpoint(&cpu);
  ASSERT_TRUE(root0.ok());
  sim::SgxDriver::SealedBlob root = *root0;  // StatusOr is not assignable

  Xoshiro256 rng(seed * 0x2545f4914f6cdd1dull + 7);
  sim::FaultInjector& faults = machine.fault_injector();
  faults.Arm(sim::Fault::kTornWrite, 0.5);
  faults.Arm(sim::Fault::kHostCrash, 0.002);
  uint64_t crashes = 0;
  uint64_t recoveries = 0;

  auto recover = [&]() {
    ++crashes;
    std::shared_ptr<BackingStore> store = inc->suvm->shared_backing_store();
    inc.reset();
    inc = std::make_unique<Incarnation>(machine, store);
    Suvm::RecoveryReport report;
    const Status status = inc->suvm->TryRecover(&cpu, root, &report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ++recoveries;
    // Re-sync the shadow to the recovered state and check every page
    // against its recorded write-boundary states.
    std::vector<uint8_t> got(sim::kPageSize);
    for (size_t p = 0; p < kRegionPages; ++p) {
      const Status read = inc->suvm->Read(&cpu, base + p * sim::kPageSize,
                                          got.data(), got.size());
      if (quarantined.count(p) != 0 || !read.ok()) {
        // Quarantine verdicts persist across restarts (fail closed).
        ASSERT_EQ(read.code(), StatusCode::kDataCorruption)
            << "page " << p << ": " << read.ToString();
        quarantined.insert(p);
        continue;
      }
      ASSERT_TRUE(history[p].count(HashPage(got.data())) == 1)
          << "seed " << seed << " page " << p
          << ": recovered bytes match no recorded write-boundary state";
      std::memcpy(shadow.data() + p * sim::kPageSize, got.data(),
                  sim::kPageSize);
    }
    // Re-checkpoint so the next crash recovers to this state. No dirty pages
    // exist right now (recovery only read), so this checkpoint cannot hit a
    // journaled-seal crash window.
    StatusOr<sim::SgxDriver::SealedBlob> next = inc->suvm->SealCheckpoint(&cpu);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    root = *next;
  };

  const uint64_t checkpoint_every = total_ops / 10 + 1;
  for (uint64_t op = 0; op < total_ops; ++op) {
    const size_t p = rng.NextBelow(kRegionPages);
    const size_t max_chunk = 256;
    const size_t off = rng.NextBelow(sim::kPageSize - max_chunk);
    const size_t len = 1 + rng.NextBelow(max_chunk);
    const uint64_t addr = base + p * sim::kPageSize + off;

    if (rng.NextBelow(100) < 60) {
      std::vector<uint8_t> buf(len);
      for (auto& b : buf) {
        b = static_cast<uint8_t>(rng.NextBelow(256));
      }
      const Status status = inc->suvm->Write(&cpu, addr, buf.data(), len);
      if (status.ok()) {
        std::memcpy(shadow.data() + p * sim::kPageSize + off, buf.data(), len);
        history[p].insert(HashPage(shadow.data() + p * sim::kPageSize));
      } else if (status.code() == StatusCode::kUnavailable) {
        ASSERT_TRUE(inc->suvm->crashed());
        recover();
      } else {
        ASSERT_EQ(status.code(), StatusCode::kDataCorruption)
            << status.ToString();
        ASSERT_TRUE(quarantined.count(p) == 1) << "page " << p;
      }
    } else {
      std::vector<uint8_t> buf(len);
      const Status status = inc->suvm->Read(&cpu, addr, buf.data(), len);
      if (status.ok()) {
        ASSERT_EQ(std::memcmp(buf.data(),
                              shadow.data() + p * sim::kPageSize + off, len),
                  0)
            << "seed " << seed << " op " << op << " page " << p;
      } else if (status.code() == StatusCode::kUnavailable) {
        ASSERT_TRUE(inc->suvm->crashed());
        recover();
      } else {
        ASSERT_EQ(status.code(), StatusCode::kDataCorruption);
        ASSERT_TRUE(quarantined.count(p) == 1) << "page " << p;
      }
    }

    if (op % checkpoint_every == checkpoint_every - 1 &&
        !inc->suvm->crashed()) {
      StatusOr<sim::SgxDriver::SealedBlob> next =
          inc->suvm->SealCheckpoint(&cpu);
      if (next.ok()) {
        root = *next;
      } else {
        ASSERT_EQ(next.status().code(), StatusCode::kUnavailable);
        recover();  // the crash hit mid-checkpoint: previous root stands
      }
    }
  }

  // The soak must actually exercise the kill/restart path.
  EXPECT_GT(crashes, 0u) << "seed " << seed;
  EXPECT_EQ(crashes, recoveries);
  // Stats are per-incarnation: the surviving instance was built by the last
  // recover() call, so it carries exactly one recovery attempt. The registry
  // sums every incarnation on the machine: one attempt per recovery.
  EXPECT_EQ(inc->suvm->stats().recovery_attempts.load(), 1u);
  EXPECT_EQ(machine.metrics().CounterValue("suvm.recovery.attempts"),
            recoveries);
  EXPECT_GE(inc->suvm->stats().recovery_pages_verified.load() +
                inc->suvm->stats().recovery_pages_quarantined.load(),
            1u);

  // Cycle attribution stays balanced through checkpoint/replay/recovery.
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSoak, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace eleos::suvm
