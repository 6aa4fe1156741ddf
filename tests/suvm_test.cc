// Copyright (c) Eleos reproduction authors. MIT license.
//
// SUVM runtime: software paging correctness, eviction policies (clean-page
// skip), direct sub-page access, tamper detection, ballooning, swapper, and
// the C API.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/suvm/suvm.h"
#include "src/suvm/suvm_c.h"
#include "tests/test_status.h"

namespace eleos::suvm {
namespace {

struct World {
  explicit World(SuvmConfig cfg = {}, size_t epc_frames = 0) {
    sim::MachineConfig mc;
    if (epc_frames != 0) {
      mc.epc_frames = epc_frames;
    }
    machine = std::make_unique<sim::Machine>(mc);
    enclave = std::make_unique<sim::Enclave>(*machine);
    suvm = std::make_unique<Suvm>(*enclave, cfg);
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<Suvm> suvm;
};

SuvmConfig TinyCfg(size_t pp_pages, size_t backing_mb = 4) {
  SuvmConfig cfg;
  cfg.epc_pp_pages = pp_pages;
  cfg.backing_bytes = backing_mb << 20;
  cfg.swapper_low_watermark = 0;
  return cfg;
}

TEST(Suvm, WriteReadRoundTripWithinCache) {
  World w(TinyCfg(16));
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(8192));
  std::vector<uint8_t> data(8192);
  Xoshiro256 rng(1);
  rng.FillBytes(data.data(), data.size());
  ASSERT_OK(w.suvm->Write(nullptr, addr, data.data(), data.size()));
  std::vector<uint8_t> back(data.size());
  ASSERT_OK(w.suvm->Read(nullptr, addr, back.data(), back.size()));
  EXPECT_EQ(data, back);
  EXPECT_EQ(w.suvm->stats().evictions.load(), 0u);
}

TEST(Suvm, DataSurvivesEvictionThroughBackingStore) {
  World w(TinyCfg(4));  // tiny EPC++: 4 pages
  const size_t n = 16 * sim::kPageSize;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(n));
  for (uint64_t p = 0; p < 16; ++p) {
    const uint64_t v = p * 0x0101010101010101ull;
    ASSERT_OK(w.suvm->Write(nullptr, addr + p * sim::kPageSize + 128, &v,
                            sizeof(v)));
  }
  EXPECT_GT(w.suvm->stats().evictions.load(), 0u);
  EXPECT_GT(w.suvm->stats().writebacks.load(), 0u);
  for (uint64_t p = 0; p < 16; ++p) {
    uint64_t got = 0;
    ASSERT_OK(w.suvm->Read(nullptr, addr + p * sim::kPageSize + 128, &got,
                           sizeof(got)));
    EXPECT_EQ(got, p * 0x0101010101010101ull) << p;
  }
}

TEST(Suvm, NeverWrittenMemoryReadsAsZero) {
  World w(TinyCfg(4));
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  uint64_t v = 0xffff;
  ASSERT_OK(w.suvm->Read(nullptr, addr + 100, &v, sizeof(v)));
  EXPECT_EQ(v, 0u);
}

TEST(Suvm, CleanPagesSkipWriteBack) {
  World w(TinyCfg(4));
  const size_t pages = 12;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(pages * sim::kPageSize));
  // Populate all pages (each gets written, evictions write back).
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_OK(w.suvm->Memset(nullptr, addr + p * sim::kPageSize,
                             static_cast<uint8_t>(p), sim::kPageSize));
  }
  // Priming read round: evicts the still-dirty resident pages (those write
  // back once, legitimately); afterwards every cached page is clean.
  uint8_t buf[16];
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_OK(w.suvm->Read(nullptr, addr + p * sim::kPageSize, buf,
                           sizeof(buf)));
  }
  // Now only read, cycling through all pages twice.
  const uint64_t wb_before = w.suvm->stats().writebacks.load();
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = 0; p < pages; ++p) {
      ASSERT_OK(w.suvm->Read(nullptr, addr + p * sim::kPageSize, buf,
                             sizeof(buf)));
      EXPECT_EQ(buf[0], static_cast<uint8_t>(p));
    }
  }
  EXPECT_EQ(w.suvm->stats().writebacks.load(), wb_before)
      << "read-only cycling must not write back";
  EXPECT_GT(w.suvm->stats().clean_drops.load(), 0u);
}

TEST(Suvm, CleanSkipDisabledAlwaysWritesBack) {
  SuvmConfig cfg = TinyCfg(4);
  cfg.clean_page_skip = false;
  World w(cfg);
  const size_t pages = 12;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(pages * sim::kPageSize));
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_OK(w.suvm->Memset(nullptr, addr + p * sim::kPageSize, 1, 64));
  }
  uint8_t buf[8];
  const uint64_t wb_before = w.suvm->stats().writebacks.load();
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = 0; p < pages; ++p) {
      ASSERT_OK(w.suvm->Read(nullptr, addr + p * sim::kPageSize, buf,
                             sizeof(buf)));
    }
  }
  EXPECT_GT(w.suvm->stats().writebacks.load(), wb_before);
  EXPECT_EQ(w.suvm->stats().clean_drops.load(), 0u);
}

uint64_t LlcAccesses(sim::Machine& m) {
  return m.llc().hits() + m.llc().misses();
}

// Paper §3.2.4: a clean drop keeps the page's seal in the arena, so it is
// bookkeeping only: no cycle and no LLC line, not even the page's crypto
// entry. A write-back streams the EPC++ copy (64 lines) and the arena
// (64 lines) and stores a new nonce and MAC (at least one entry line).
TEST(Suvm, CleanDropsTouchNoMemoryAndWriteBacksTouchTheEntry) {
  constexpr uint64_t kPages = 8;
  World w(TinyCfg(kPages));
  sim::CpuContext& cpu = w.machine->cpu(0);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(2 * kPages * sim::kPageSize));
  // Seal every page once, then read the first half back: that pass evicts
  // the dirty second half and leaves only clean pages resident.
  for (uint64_t p = 0; p < 2 * kPages; ++p) {
    ASSERT_OK(w.suvm->Memset(&cpu, a + p * sim::kPageSize,
                             static_cast<uint8_t>(p), sim::kPageSize));
  }
  uint8_t buf[16];
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_OK(w.suvm->Read(&cpu, a + p * sim::kPageSize, buf, sizeof(buf)));
  }
  ASSERT_EQ(w.suvm->page_cache().in_use(), kPages);

  const Suvm::Stats& s = w.suvm->stats();
  const uint64_t drops = s.clean_drops.load();
  const uint64_t writebacks = s.writebacks.load();
  uint64_t t0 = cpu.clock.now();
  uint64_t lines = LlcAccesses(*w.machine);
  w.suvm->ResizeEpcPp(&cpu, 0);
  EXPECT_EQ(s.clean_drops.load() - drops, kPages);
  EXPECT_EQ(s.writebacks.load(), writebacks);
  EXPECT_EQ(cpu.clock.now() - t0, 0u);
  EXPECT_EQ(LlcAccesses(*w.machine) - lines, 0u);

  // The same pages, dirtied, cost a seal each on the way out.
  w.suvm->ResizeEpcPp(&cpu, kPages);
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_OK(w.suvm->Memset(&cpu, a + p * sim::kPageSize, 0x77, 1));
  }
  t0 = cpu.clock.now();
  lines = LlcAccesses(*w.machine);
  w.suvm->ResizeEpcPp(&cpu, 0);
  EXPECT_EQ(s.writebacks.load() - writebacks, kPages);
  EXPECT_GT(cpu.clock.now(), t0);
  EXPECT_GE(LlcAccesses(*w.machine) - lines, kPages * (64 + 64 + 1));
}

// Direct access served from the resident EPC++ copy opens no seal: a
// line-aligned 16-byte read is one LLC access, with no crypto entry lookup.
// Once the page is sealed out, the same read streams its 1 KiB sub-page
// (16 lines) and reads the entry (at least one line).
TEST(SuvmDirect, ResidentReadTouchesOnlyTheCachedLine) {
  SuvmConfig cfg = TinyCfg(4);
  cfg.direct_mode = true;
  World w(cfg);
  sim::CpuContext& cpu = w.machine->cpu(0);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(2 * sim::kPageSize));
  const uint64_t line = (a + 63) / 64 * 64;
  const uint8_t v[16] = {1, 2, 3, 4};
  ASSERT_OK(w.suvm->Write(&cpu, line, v, sizeof(v)));  // resident
  uint8_t got[16] = {};
  uint64_t lines = LlcAccesses(*w.machine);
  ASSERT_OK(w.suvm->ReadDirect(&cpu, line, got, sizeof(got)));
  EXPECT_EQ(LlcAccesses(*w.machine) - lines, 1u);
  EXPECT_EQ(0, std::memcmp(got, v, sizeof(v)));

  w.suvm->ResizeEpcPp(&cpu, 0);
  std::memset(got, 0, sizeof(got));
  lines = LlcAccesses(*w.machine);
  ASSERT_OK(w.suvm->ReadDirect(&cpu, line, got, sizeof(got)));
  EXPECT_GE(LlcAccesses(*w.machine) - lines, 16u + 1u);
  EXPECT_EQ(0, std::memcmp(got, v, sizeof(v)));
}

TEST(Suvm, TamperedBackingStoreDetected) {
  World w(TinyCfg(2));
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(8 * sim::kPageSize));
  // Write pages 0..7; with 2 EPC++ slots, early pages get sealed out.
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_OK(w.suvm->Memset(nullptr, addr + p * sim::kPageSize, 0x5a,
                             sim::kPageSize));
  }
  // Corrupt page 0's ciphertext directly in the untrusted arena.
  uint8_t* ct = w.suvm->backing_store().Raw(addr);
  ct[17] ^= 0x40;
  uint8_t buf[8];
  EXPECT_EQ(w.suvm->Read(nullptr, addr, buf, sizeof(buf)).code(),
            StatusCode::kDataCorruption);
}

TEST(Suvm, MemcpyAndMemcmpBetweenBuffers) {
  World w(TinyCfg(8));
  const size_t n = 3 * sim::kPageSize + 77;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(n));
  const uint64_t b = ValueOrThrow(w.suvm->Malloc(n));
  std::vector<uint8_t> data(n);
  Xoshiro256 rng(5);
  rng.FillBytes(data.data(), n);
  ASSERT_OK(w.suvm->Write(nullptr, a, data.data(), n));
  ASSERT_OK(w.suvm->Memcpy(nullptr, b, a, n));
  EXPECT_EQ(ValueOrThrow(w.suvm->Memcmp(nullptr, b, data.data(), n)), 0);
  data[n - 1] ^= 1;
  EXPECT_NE(ValueOrThrow(w.suvm->Memcmp(nullptr, b, data.data(), n)), 0);
}

TEST(Suvm, FreeReleasesCacheSlots) {
  World w(TinyCfg(8));
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(4 * sim::kPageSize));
  ASSERT_OK(w.suvm->Memset(nullptr, a, 1, 4 * sim::kPageSize));
  EXPECT_EQ(w.suvm->page_cache().in_use(), 4u);
  w.suvm->Free(a);
  EXPECT_EQ(w.suvm->page_cache().in_use(), 0u);
}

TEST(Suvm, SwapperMaintainsFreePool) {
  SuvmConfig cfg = TinyCfg(8);
  cfg.swapper_low_watermark = 4;
  World w(cfg);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(8 * sim::kPageSize));
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_OK(w.suvm->Memset(nullptr, a + p * sim::kPageSize, 1, 8));
  }
  // All 8 slots in use; the swapper must bring free slots back to >= 4.
  w.suvm->SwapperPass(nullptr);
  EXPECT_GE(w.suvm->page_cache().free_slots(), 4u);
}

TEST(Suvm, ResizeEvictsDownToTarget) {
  World w(TinyCfg(16));
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(16 * sim::kPageSize));
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_OK(w.suvm->Memset(nullptr, a + p * sim::kPageSize, 2, 8));
  }
  EXPECT_EQ(w.suvm->page_cache().in_use(), 16u);
  w.suvm->ResizeEpcPp(nullptr, 6);
  EXPECT_LE(w.suvm->page_cache().in_use(), 6u);
  // Data still intact afterwards.
  uint8_t buf[4];
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_OK(w.suvm->Read(nullptr, a + p * sim::kPageSize, buf, sizeof(buf)));
    EXPECT_EQ(buf[0], 2);
  }
}

TEST(Suvm, BalloonPassSplitsPrmBetweenEnclaves) {
  sim::MachineConfig mc;
  mc.epc_frames = 2000;
  sim::Machine machine(mc);
  sim::Enclave e1(machine);
  SuvmConfig cfg = TinyCfg(1500, 8);
  Suvm s1(e1, cfg);
  const size_t solo_target = s1.BalloonPass(nullptr);
  EXPECT_GT(solo_target, 1000u);

  sim::Enclave e2(machine);
  Suvm s2(e2, cfg);
  const size_t shared_target = s1.BalloonPass(nullptr);
  EXPECT_LT(shared_target, solo_target / 1.5);
}

TEST(Suvm, SoftwareFaultsCauseNoEnclaveExits) {
  World w(TinyCfg(4));
  sim::CpuContext& cpu = w.machine->cpu(0);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(16 * sim::kPageSize));
  w.enclave->Enter(cpu);
  const uint64_t flushes_before = cpu.tlb.flushes();
  const uint64_t hw_faults_before = w.machine->driver().stats().faults;
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_OK(w.suvm->Memset(&cpu, a + p * sim::kPageSize, 1, 64));
  }
  const uint64_t flushes_after = cpu.tlb.flushes();
  w.enclave->Exit(cpu);
  EXPECT_GT(w.suvm->stats().major_faults.load(), 0u);
  // EPC++ fits in EPC: software paging must cause no hardware faults beyond
  // the initial materialization of EPC++/metadata pages, and no TLB flushes.
  EXPECT_EQ(flushes_after,
            flushes_before + (w.machine->driver().stats().faults - hw_faults_before));
  EXPECT_EQ(w.machine->driver().stats().ipis, 0u);
}

TEST(Suvm, SoftwareFaultCostMatchesPaperScale) {
  World w(TinyCfg(64));
  sim::CpuContext& cpu = w.machine->cpu(0);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(256 * sim::kPageSize));
  // Materialize & seal everything: write all pages, then force eviction.
  for (uint64_t p = 0; p < 256; ++p) {
    ASSERT_OK(w.suvm->Memset(&cpu, a + p * sim::kPageSize, 3, sim::kPageSize));
  }
  // Read-only pass over the first 64 pages: flushes the dirty residents out
  // and leaves only *clean* pages cached, so the measured fault's victim is a
  // clean drop (the paper's read-only page-in measurement).
  uint8_t buf[8];
  for (uint64_t p = 0; p < 64; ++p) {
    ASSERT_OK(w.suvm->Read(&cpu, a + p * sim::kPageSize, buf, sizeof(buf)));
  }
  const uint64_t cold_page = 100 * sim::kPageSize;
  const uint64_t t0 = cpu.clock.now();
  ASSERT_OK(w.suvm->Read(&cpu, a + cold_page, buf, sizeof(buf)));
  const uint64_t pagein = cpu.clock.now() - t0;
  // Paper §6.1.2: page-in alone ~8.5k cycles. Allow 6k..20k (the access
  // itself and metadata touches ride along).
  EXPECT_GT(pagein, 6000u);
  EXPECT_LT(pagein, 20000u);
}

TEST(SuvmDirect, ReadWriteRoundTripNonResident) {
  SuvmConfig cfg = TinyCfg(4);
  cfg.direct_mode = true;
  World w(cfg);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(8 * sim::kPageSize));
  // Write via the cache path, then evict everything.
  std::vector<uint8_t> data(2 * sim::kPageSize);
  Xoshiro256 rng(9);
  rng.FillBytes(data.data(), data.size());
  ASSERT_OK(w.suvm->Write(nullptr, a, data.data(), data.size()));
  w.suvm->ResizeEpcPp(nullptr, 0);
  ASSERT_EQ(w.suvm->page_cache().in_use(), 0u);

  // Direct reads at sub-page granularity see the same bytes.
  uint8_t buf[100];
  ASSERT_OK(w.suvm->ReadDirect(nullptr, a + 500, buf, sizeof(buf)));
  EXPECT_EQ(0, std::memcmp(buf, data.data() + 500, sizeof(buf)));

  // Direct write, then verify through the cache path.
  w.suvm->ResizeEpcPp(nullptr, 4);
  const uint8_t patch[32] = {9, 9, 9, 9};
  ASSERT_OK(w.suvm->WriteDirect(nullptr, a + 1000, patch, sizeof(patch)));
  uint8_t back[32];
  ASSERT_OK(w.suvm->Read(nullptr, a + 1000, back, sizeof(back)));
  EXPECT_EQ(0, std::memcmp(back, patch, sizeof(back)));
}

TEST(SuvmDirect, ResidentPageWinsForConsistency) {
  SuvmConfig cfg = TinyCfg(4);
  cfg.direct_mode = true;
  World w(cfg);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  const uint64_t v1 = 0x1111;
  ASSERT_OK(w.suvm->Write(nullptr, a, &v1, sizeof(v1)));  // resident + dirty
  // Direct read must see the cached (newer) value, not stale backing data.
  uint64_t got = 0;
  ASSERT_OK(w.suvm->ReadDirect(nullptr, a, &got, sizeof(got)));
  EXPECT_EQ(got, v1);
  // Direct write to a resident page must update the cached copy.
  const uint64_t v2 = 0x2222;
  ASSERT_OK(w.suvm->WriteDirect(nullptr, a, &v2, sizeof(v2)));
  ASSERT_OK(w.suvm->Read(nullptr, a, &got, sizeof(got)));
  EXPECT_EQ(got, v2);
}

TEST(SuvmDirect, RequiresDirectMode) {
  World w(TinyCfg(4));
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(64));
  uint8_t buf[8];
  EXPECT_EQ(w.suvm->ReadDirect(nullptr, a, buf, 8).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.suvm->WriteDirect(nullptr, a, buf, 8).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SuvmDirect, SubPageTamperDetected) {
  SuvmConfig cfg = TinyCfg(2);
  cfg.direct_mode = true;
  World w(cfg);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(4 * sim::kPageSize));
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_OK(w.suvm->Memset(nullptr, a + p * sim::kPageSize, 7,
                             sim::kPageSize));
  }
  w.suvm->ResizeEpcPp(nullptr, 0);
  // Corrupt the second 1 KiB sub-page of page 0.
  w.suvm->backing_store().Raw(a + 1024)[3] ^= 1;
  uint8_t buf[8];
  // First sub-page opens fine...
  ASSERT_OK(w.suvm->ReadDirect(nullptr, a, buf, sizeof(buf)));
  EXPECT_EQ(buf[0], 7);
  // ...the tampered one fails (after the retry, which quarantines the page).
  EXPECT_EQ(w.suvm->ReadDirect(nullptr, a + 1024, buf, sizeof(buf)).code(),
            StatusCode::kDataCorruption);
}

TEST(SuvmCApi, RoundTripAndMemOps) {
  World w(TinyCfg(8));
  suvm_ctx* ctx = suvm_ctx_from(w.suvm.get());
  suvm_addr_t a = kInvalidAddr;
  ASSERT_EQ(suvm_malloc(ctx, 10000, &a), SUVM_OK);
  const char msg[] = "hello enclave";
  ASSERT_EQ(suvm_set_bytes(ctx, a + 100, msg, sizeof(msg)), SUVM_OK);
  char back[sizeof(msg)];
  ASSERT_EQ(suvm_get_bytes(ctx, a + 100, back, sizeof(back)), SUVM_OK);
  EXPECT_STREQ(back, msg);
  int cmp = -1;
  ASSERT_EQ(suvm_memcmp(ctx, a + 100, msg, sizeof(msg), &cmp), SUVM_OK);
  EXPECT_EQ(cmp, 0);

  ASSERT_EQ(suvm_memset(ctx, a, 0x33, 50), SUVM_OK);
  uint8_t b33[50];
  ASSERT_EQ(suvm_get_bytes(ctx, a, b33, sizeof(b33)), SUVM_OK);
  for (uint8_t v : b33) {
    EXPECT_EQ(v, 0x33);
  }

  suvm_addr_t b = kInvalidAddr;
  ASSERT_EQ(suvm_malloc(ctx, 10000, &b), SUVM_OK);
  ASSERT_EQ(suvm_memcpy(ctx, b, a, 200), SUVM_OK);
  cmp = -1;
  ASSERT_EQ(suvm_memcmp(ctx, b + 100, msg, sizeof(msg), &cmp), SUVM_OK);
  EXPECT_EQ(cmp, 0);
  EXPECT_EQ(suvm_free(ctx, a), SUVM_OK);
  EXPECT_EQ(suvm_free(ctx, b), SUVM_OK);
}

TEST(Suvm, MultithreadedMixedAccess) {
  World w(TinyCfg(32, 16));
  const size_t per_thread_pages = 24;
  const int threads = 4;
  std::vector<uint64_t> bases;
  bases.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    bases.push_back(
        ValueOrThrow(w.suvm->Malloc(per_thread_pages * sim::kPageSize)));
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::atomic<int> errors{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 1);
      const uint64_t base = bases[static_cast<size_t>(t)];
      for (int i = 0; i < 2000; ++i) {
        const uint64_t off =
            rng.NextBelow(per_thread_pages * sim::kPageSize - 8);
        uint64_t v = (static_cast<uint64_t>(t) << 56) | off;
        ASSERT_OK(w.suvm->Write(nullptr, base + off, &v, sizeof(v)));
        uint64_t got = 0;
        ASSERT_OK(w.suvm->Read(nullptr, base + off, &got, sizeof(got)));
        if (got != v) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : workers) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(w.suvm->stats().evictions.load(), 0u);
}

}  // namespace
}  // namespace eleos::suvm
