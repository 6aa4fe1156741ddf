// Copyright (c) Eleos reproduction authors. MIT license.
//
// Parallel SUVM paging: real-thread stress over the residency state machine
// (DESIGN.md §14). Four threads pin/unpin/read/write a shared region while a
// maintenance thread runs swapper and balloon passes; afterwards the EPC++
// slot population must be exactly conserved (no lost slots, no duplicates —
// a duplicated free throws out of PageCache immediately) and the span audit
// must still balance to the cycle. Additional cases drive fault coalescing
// on a single hot page, quarantine fail-closed under contention, and
// crash-recovery racing concurrent writers.
//
// These tests are the TSan/ASan targets for the lock-split paging paths; the
// deterministic single-thread cycle counts are covered by the bench_diff
// gate, not here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/fault_injector.h"
#include "src/suvm/suvm.h"
#include "tests/test_status.h"

namespace eleos::suvm {
namespace {

struct World {
  explicit World(SuvmConfig cfg = {}) {
    machine = std::make_unique<sim::Machine>();
    enclave = std::make_unique<sim::Enclave>(*machine);
    suvm = std::make_unique<Suvm>(*enclave, cfg);
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<Suvm> suvm;
};

SuvmConfig TinyCfg(size_t pp_pages, size_t backing_mb = 16) {
  SuvmConfig cfg;
  cfg.epc_pp_pages = pp_pages;
  cfg.backing_bytes = backing_mb << 20;
  cfg.swapper_low_watermark = 0;
  return cfg;
}

// Drains the cache and proves exact slot conservation: every slot the pool
// started with is allocatable exactly once, and none was leaked or forged.
void ExpectSlotsConserved(Suvm& suvm) {
  PageCache& pc = suvm.page_cache();
  const size_t max_pages = pc.max_pages();
  suvm.ResizeEpcPp(nullptr, 0);  // nothing pinned: evicts everything
  EXPECT_EQ(pc.in_use(), 0u) << "resident pages survived a full drain";
  pc.set_target_pages(max_pages);
  std::vector<int> all;
  for (int s = pc.AllocSlot(); s >= 0; s = pc.AllocSlot()) {
    all.push_back(s);
  }
  EXPECT_EQ(all.size(), max_pages) << "slots were lost or duplicated";
  std::vector<bool> seen(max_pages, false);
  for (const int s : all) {
    ASSERT_GE(s, 0);
    ASSERT_LT(static_cast<size_t>(s), max_pages);
    EXPECT_FALSE(seen[static_cast<size_t>(s)]) << "slot " << s << " duplicated";
    seen[static_cast<size_t>(s)] = true;
  }
  for (const int s : all) {
    pc.FreeSlot(s);
  }
}

TEST(SuvmParallel, FourThreadPinUnpinSwapperBalloonStress) {
  World w(TinyCfg(32));
  sim::Machine& machine = *w.machine;
  machine.EnableTracing(/*audit=*/true);
  Suvm& suvm = *w.suvm;

  constexpr int kWorkers = 3;  // + 1 maintenance thread = 4
  constexpr size_t kPages = 96;  // 3x the cache: every thread faults steadily
  constexpr int kOpsPerThread = 4000;
  const uint64_t base = ValueOrThrow(suvm.Malloc(kPages * sim::kPageSize));
  const uint64_t first_page = base / sim::kPageSize;

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      sim::CpuContext* cpu = &machine.cpu(static_cast<size_t>(t));
      Xoshiro256 rng(0x5eed0 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t page = first_page + rng.NextBelow(kPages);
        int slot = -1;
        const Status status = suvm.PinPage(cpu, page, &slot);
        if (!status.ok()) {
          // Transient exhaustion while the balloon thread shrinks is legal;
          // anything else is a bug.
          if (status.code() != StatusCode::kResourceExhausted) {
            errors.fetch_add(1);
          }
          continue;
        }
        // Thread-private byte inside the shared page: write, re-read, unpin.
        uint8_t* data = suvm.SlotData(cpu, slot, static_cast<size_t>(t), 1,
                                      /*write=*/true);
        const uint8_t want = static_cast<uint8_t>(0x40 + t);
        *data = want;
        if (*suvm.SlotData(cpu, slot, static_cast<size_t>(t), 1, false) !=
            want) {
          errors.fetch_add(1);
        }
        suvm.UnpinPage(page, slot, /*dirty=*/true);
      }
    });
  }
  // Maintenance thread: swapper + balloon churn against the faulting threads.
  threads.emplace_back([&] {
    sim::CpuContext* cpu = &machine.cpu(kWorkers);
    Xoshiro256 rng(0xba110011);
    const size_t max_pages = suvm.page_cache().max_pages();
    while (!stop.load(std::memory_order_acquire)) {
      suvm.SwapperPass(cpu);
      const size_t target = max_pages / 2 + rng.NextBelow(max_pages / 2);
      suvm.ResizeEpcPp(cpu, target);
      suvm.BalloonPass(cpu);  // driver share is ample: restores a full cache
    }
  });
  for (int t = 0; t < kWorkers; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(suvm.stats().evictions.load(), 0u);
  ExpectSlotsConserved(suvm);

  // Every worker's last write must have survived the churn.
  for (uint64_t p = 0; p < kPages; ++p) {
    uint8_t bytes[kWorkers];
    ASSERT_OK(suvm.Read(nullptr, base + p * sim::kPageSize, bytes,
                        sizeof(bytes)));
    for (int t = 0; t < kWorkers; ++t) {
      if (bytes[t] != 0) {
        EXPECT_EQ(bytes[t], static_cast<uint8_t>(0x40 + t))
            << "page " << p << " worker " << t;
      }
    }
  }

  // The exact span audit must balance across all four charging threads.
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
}

// All four threads fault the same cold page at once: exactly one leader fills
// it, everyone ends up with the *same* slot, and waiters are visible in the
// fault_coalesced counter. Repeated over many rounds with a full drain in
// between so every round is a cold major fault.
TEST(SuvmParallel, CoalescedFaultsShareOneFill) {
  World w(TinyCfg(8));
  sim::Machine& machine = *w.machine;
  Suvm& suvm = *w.suvm;
  const uint64_t base = ValueOrThrow(suvm.Malloc(4 * sim::kPageSize));
  const uint64_t page = base / sim::kPageSize;
  const uint64_t marker = 0x9e3779b97f4a7c15ull;
  ASSERT_OK(suvm.Write(nullptr, base, &marker, sizeof(marker)));
  suvm.ResetStats();  // the zero-fill fault above is not part of the count

  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    suvm.ResizeEpcPp(nullptr, 0);  // force the next pin to major-fault
    suvm.page_cache().set_target_pages(8);
    std::atomic<int> ready{0};
    std::atomic<int> errors{0};
    int slots[kThreads] = {-1, -1, -1, -1};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        sim::CpuContext* cpu = &machine.cpu(static_cast<size_t>(t));
        ready.fetch_add(1);
        while (ready.load(std::memory_order_acquire) < kThreads) {
        }
        int slot = -1;
        if (!suvm.PinPage(cpu, page, &slot).ok()) {
          errors.fetch_add(1);
          return;
        }
        slots[t] = slot;
        uint64_t got = 0;
        std::memcpy(&got, suvm.SlotData(cpu, slot, 0, sizeof(got), false),
                    sizeof(got));
        if (got != marker) {
          errors.fetch_add(1);
        }
        suvm.UnpinPage(page, slot, /*dirty=*/false);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_EQ(errors.load(), 0) << "round " << round;
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(slots[t], slots[0])
          << "round " << round << ": coalesced pins landed in two slots";
    }
  }
  // One fill per round regardless of how many threads raced it.
  EXPECT_EQ(suvm.stats().major_faults.load(), static_cast<uint64_t>(kRounds));
  ExpectSlotsConserved(suvm);
}

// A persistently tampered page must fail closed for *every* racing reader:
// one quarantine event total, every access after it fast-fails, and the slot
// population stays intact.
TEST(SuvmParallel, QuarantineFailsClosedUnderContention) {
  World w(TinyCfg(4));
  sim::Machine& machine = *w.machine;
  Suvm& suvm = *w.suvm;
  const uint64_t base = ValueOrThrow(suvm.Malloc(8 * sim::kPageSize));
  std::vector<uint8_t> data(sim::kPageSize, 0xab);
  ASSERT_OK(suvm.Write(nullptr, base, data.data(), data.size()));
  suvm.ResizeEpcPp(nullptr, 0);  // seal the page out
  suvm.page_cache().set_target_pages(4);

  machine.fault_injector().Arm(sim::Fault::kCiphertextFlip, 1.0);

  constexpr int kThreads = 4;
  std::atomic<int> ok_reads{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::CpuContext* cpu = &machine.cpu(static_cast<size_t>(t));
      uint8_t buf[16];
      for (int i = 0; i < 50; ++i) {
        const Status status = suvm.Read(cpu, base, buf, sizeof(buf));
        if (status.ok()) {
          ok_reads.fetch_add(1);
        } else if (status.code() != StatusCode::kDataCorruption) {
          ADD_FAILURE() << "unexpected status: " << status.message();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  machine.fault_injector().Disarm(sim::Fault::kCiphertextFlip);

  EXPECT_EQ(ok_reads.load(), 0) << "a tampered page served plaintext";
  EXPECT_TRUE(suvm.IsQuarantined(base / sim::kPageSize));
  // The poison verdict is recorded once, no matter how many threads raced.
  EXPECT_EQ(suvm.stats().pages_quarantined.load(), 1u);
  EXPECT_GE(suvm.stats().quarantine_hits.load(), 1u);
  ExpectSlotsConserved(suvm);
}

// Host crash while four writers hammer the journaled seal path: the instance
// dies mid-2PC, and a fresh instance recovers the checkpointed region intact
// over the surviving arena.
TEST(SuvmParallel, CrashRecoveryUnderConcurrentWriters) {
  SuvmConfig cfg = TinyCfg(8);
  cfg.crash_consistency = true;
  auto first = std::make_unique<World>(cfg);
  sim::Machine& machine = *first->machine;
  Suvm& suvm = *first->suvm;
  sim::CpuContext& cpu0 = machine.cpu(0);

  // Region A: sealed into the checkpoint, never touched again.
  const uint64_t stable = ValueOrThrow(suvm.Malloc(16 * sim::kPageSize));
  std::vector<uint8_t> want(16 * sim::kPageSize);
  Xoshiro256 fill(0xc0ffee);
  fill.FillBytes(want.data(), want.size());
  ASSERT_OK(suvm.Write(&cpu0, stable, want.data(), want.size()));
  // Region B: the concurrent writers' scratch space.
  const uint64_t scratch = ValueOrThrow(suvm.Malloc(32 * sim::kPageSize));

  StatusOr<sim::SgxDriver::SealedBlob> root = suvm.SealCheckpoint(&cpu0);
  ASSERT_TRUE(root.ok()) << root.status().message();

  machine.fault_injector().Arm(sim::Fault::kHostCrash, 0.01);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::CpuContext* cpu = &machine.cpu(static_cast<size_t>(t));
      Xoshiro256 rng(0xdead + static_cast<uint64_t>(t));
      uint64_t v = 0;
      while (!suvm.crashed()) {
        const uint64_t off = rng.NextBelow(32 * sim::kPageSize - 8);
        ++v;
        if (suvm.Write(cpu, scratch + off, &v, sizeof(v)).code() ==
            StatusCode::kUnavailable) {
          break;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(suvm.crashed()) << "crash injector armed but never fired";
  machine.fault_injector().Disarm(sim::Fault::kHostCrash);

  // "Restart": a fresh enclave + Suvm over the surviving arena, on the same
  // machine (the platform monotonic counter must survive for the freshness
  // check). The dead incarnation is torn down first.
  std::shared_ptr<BackingStore> arena = suvm.shared_backing_store();
  first->suvm.reset();
  auto enclave2 = std::make_unique<sim::Enclave>(machine);
  auto recovered = std::make_unique<Suvm>(*enclave2, cfg, arena);
  Suvm::RecoveryReport report;
  const Status status = recovered->TryRecover(&cpu0, *root, &report);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_GT(report.pages_verified, 0u);

  std::vector<uint8_t> got(want.size());
  ASSERT_OK(recovered->Read(&cpu0, stable, got.data(), got.size()));
  EXPECT_EQ(got, want) << "checkpointed region corrupted by the crash";
}

// One CPU reading alone never coalesces a fault and never waits on the paging
// gate: every gate section it meets is its own (the byte-identity guarantee
// for single-CPU bench_diff runs).
TEST(SuvmParallel, SingleCpuReadsNeverCoalesceOrWait) {
  World w(TinyCfg(16));
  Suvm& suvm = *w.suvm;
  const uint64_t base = ValueOrThrow(suvm.Malloc(32 * sim::kPageSize));
  sim::CpuContext& cpu = w.machine->cpu(0);
  std::vector<uint8_t> buf(sim::kPageSize);
  for (uint64_t p = 0; p < 32; ++p) {
    ASSERT_OK(suvm.Read(&cpu, base + p * sim::kPageSize, buf.data(),
                        buf.size()));
  }
  EXPECT_EQ(suvm.stats().fault_coalesced.load(), 0u);
  EXPECT_EQ(suvm.stats().gate_wait_cycles.load(), 0u);
}

}  // namespace
}  // namespace eleos::suvm
