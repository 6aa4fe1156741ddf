// Copyright (c) Eleos reproduction authors. MIT license.
//
// EPC frame pool + simulated SGX driver: residency, demand paging with real
// sealing, eviction pressure, shootdown IPIs, and the Eleos fair-share ioctl.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/sim/enclave.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"

namespace eleos::sim {
namespace {

MachineConfig TinyMachine(size_t frames) {
  MachineConfig cfg;
  cfg.epc_frames = frames;
  return cfg;
}

TEST(Epc, AllocFreeCycle) {
  Epc epc(4);
  EXPECT_EQ(epc.total_frames(), 4u);
  FrameId a = epc.Alloc();
  FrameId b = epc.Alloc();
  ASSERT_NE(a, kInvalidFrame);
  ASSERT_NE(b, kInvalidFrame);
  EXPECT_NE(a, b);
  EXPECT_EQ(epc.free_frames(), 2u);
  epc.Free(a);
  EXPECT_EQ(epc.free_frames(), 3u);
}

TEST(Epc, ExhaustionReturnsInvalid) {
  Epc epc(2);
  epc.Alloc();
  epc.Alloc();
  EXPECT_EQ(epc.Alloc(), kInvalidFrame);
}

TEST(Epc, FramesZeroedOnAlloc) {
  Epc epc(2);
  FrameId a = epc.Alloc();
  std::memset(epc.FrameData(a), 0xab, kPageSize);
  epc.Free(a);
  FrameId b = epc.Alloc();
  EXPECT_EQ(b, a);  // LIFO free list hands the dirty frame back
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(epc.FrameData(b)[i], 0) << i;
  }
}

TEST(SgxDriver, DataSurvivesEvictionAndReload) {
  Machine m(TinyMachine(8));
  m.driver().ConfigureSwapper(0, 0);  // no background swapper: direct eviction
  Enclave enclave(m);
  const uint64_t vaddr = enclave.Alloc(16 * kPageSize);

  // Write a distinct pattern into 16 pages through 8 frames of EPC.
  for (uint64_t p = 0; p < 16; ++p) {
    uint8_t* data = m.driver().Touch(nullptr, enclave, vaddr / kPageSize + p, true);
    std::memset(data, static_cast<int>(0x10 + p), kPageSize);
  }
  EXPECT_GT(m.driver().stats().evictions, 0u);

  // Every page must read back intact (reload = real AES-GCM open).
  for (uint64_t p = 0; p < 16; ++p) {
    const uint8_t* data =
        m.driver().Touch(nullptr, enclave, vaddr / kPageSize + p, false);
    for (size_t i = 0; i < kPageSize; i += 997) {
      ASSERT_EQ(data[i], 0x10 + p) << "page " << p;
    }
  }
  EXPECT_GT(m.driver().stats().page_ins, 0u);
}

TEST(SgxDriver, FaultCostsMatchPaperScale) {
  Machine m(TinyMachine(8));
  m.driver().ConfigureSwapper(0, 0);
  Enclave enclave(m);
  CpuContext& cpu = m.cpu(0);
  const uint64_t vaddr = enclave.Alloc(32 * kPageSize);

  // Prime 8 pages (zero-fill faults), then cause eviction+reload faults.
  for (uint64_t p = 0; p < 32; ++p) {
    m.driver().Touch(&cpu, enclave, vaddr / kPageSize + p, true);
  }
  const uint64_t before = cpu.clock.now();
  m.driver().Touch(&cpu, enclave, vaddr / kPageSize + 0, true);  // evict+reload
  const uint64_t fault_cost = cpu.clock.now() - before;
  // Paper §2.3: ~25k driver + ~7k exits (+ copies); must land in 25k..60k.
  EXPECT_GT(fault_cost, 25000u);
  EXPECT_LT(fault_cost, 60000u);
}

TEST(SgxDriver, ResidentTouchIsFree) {
  Machine m(TinyMachine(8));
  Enclave enclave(m);
  CpuContext& cpu = m.cpu(0);
  const uint64_t vaddr = enclave.Alloc(kPageSize);
  m.driver().Touch(&cpu, enclave, vaddr / kPageSize, true);
  const uint64_t before = cpu.clock.now();
  m.driver().Touch(&cpu, enclave, vaddr / kPageSize, true);
  EXPECT_EQ(cpu.clock.now(), before);
}

TEST(SgxDriver, UnreservedPageThrows) {
  Machine m(TinyMachine(8));
  Enclave enclave(m);
  EXPECT_THROW(m.driver().Touch(nullptr, enclave, 0xdead, false),
               std::out_of_range);
}

TEST(SgxDriver, ReleasedPageThrows) {
  Machine m(TinyMachine(8));
  Enclave enclave(m);
  const uint64_t vaddr = enclave.Alloc(2 * kPageSize);
  const uint64_t vpage = vaddr / kPageSize;
  m.driver().Touch(nullptr, enclave, vpage, true);
  enclave.Free(vaddr, kPageSize);
  EXPECT_THROW(m.driver().Touch(nullptr, enclave, vpage, false),
               std::out_of_range);
  // Its neighbour, and the page after the last reserved one, behave as
  // before: reserved and never reserved.
  EXPECT_NE(m.driver().Touch(nullptr, enclave, vpage + 1, false), nullptr);
  EXPECT_THROW(m.driver().Touch(nullptr, enclave, vpage + 2, false),
               std::out_of_range);
}

// Two enclaves whose reservations interleave in time: each enclave's pages
// are indexed from its own base, so their state and data never mix, also
// across eviction and reload through a pool smaller than either.
TEST(SgxDriver, InterleavedReservationsStayIndependent) {
  Machine m(TinyMachine(6));
  m.driver().ConfigureSwapper(0, 0);
  Enclave a(m);
  Enclave b(m);
  std::vector<uint64_t> va;
  std::vector<uint64_t> vb;
  for (int i = 0; i < 4; ++i) {
    va.push_back(a.Alloc(2 * kPageSize));
    vb.push_back(b.Alloc(3 * kPageSize));
  }
  const auto fill = [](Enclave& e, const std::vector<uint64_t>& runs,
                       size_t pages, uint8_t tag) {
    for (size_t r = 0; r < runs.size(); ++r) {
      for (size_t p = 0; p < pages; ++p) {
        const uint8_t v = static_cast<uint8_t>(tag + r * 8 + p);
        std::vector<uint8_t> page(kPageSize, v);
        e.Write(nullptr, runs[r] + p * kPageSize, page.data(), page.size());
      }
    }
  };
  fill(a, va, 2, 0x10);
  fill(b, vb, 3, 0x80);
  ASSERT_GT(m.driver().stats().evictions, 0u);
  const auto check = [](Enclave& e, const std::vector<uint64_t>& runs,
                        size_t pages, uint8_t tag) {
    for (size_t r = 0; r < runs.size(); ++r) {
      for (size_t p = 0; p < pages; ++p) {
        const uint8_t v = static_cast<uint8_t>(tag + r * 8 + p);
        std::vector<uint8_t> page(kPageSize);
        e.Read(nullptr, runs[r] + p * kPageSize, page.data(), page.size());
        ASSERT_EQ(page, std::vector<uint8_t>(kPageSize, v))
            << "run " << r << " page " << p;
      }
    }
  };
  check(b, vb, 3, 0x80);
  check(a, va, 2, 0x10);
  EXPECT_GT(m.driver().stats().page_ins, 0u);
  // Releasing one enclave's run leaves the other's same-index run intact.
  a.Free(va[1], 2 * kPageSize);
  EXPECT_THROW(m.driver().Touch(nullptr, a, va[1] / kPageSize, false),
               std::out_of_range);
  check(b, vb, 3, 0x80);
}

TEST(SgxDriver, UnregisterReturnsEveryFrameAndLaterEnclavesStartZeroed) {
  Machine m(TinyMachine(8));
  m.driver().ConfigureSwapper(0, 0);
  {
    Enclave gone(m);
    const uint64_t v = gone.Alloc(12 * kPageSize);
    for (uint64_t p = 0; p < 12; ++p) {
      std::vector<uint8_t> page(kPageSize, 0xee);
      gone.Write(nullptr, v + p * kPageSize, page.data(), page.size());
    }
    ASSERT_EQ(m.epc().free_frames(), 0u);
  }
  EXPECT_EQ(m.epc().free_frames(), m.epc().total_frames());
  EXPECT_EQ(m.driver().enclave_count(), 0u);

  Enclave later(m);
  const uint64_t v = later.Alloc(12 * kPageSize);
  for (uint64_t p = 0; p < 12; ++p) {
    std::vector<uint8_t> page(kPageSize, 0xff);
    later.Read(nullptr, v + p * kPageSize, page.data(), page.size());
    ASSERT_EQ(page, std::vector<uint8_t>(kPageSize, 0)) << "page " << p;
  }
  EXPECT_EQ(m.driver().stats().page_ins, 0u);
}

TEST(SgxDriver, FairShareIoctl) {
  Machine m(TinyMachine(100));
  Enclave a(m);
  EXPECT_EQ(m.driver().AvailableFramesFor(a.id()), 100u);
  {
    Enclave b(m);
    EXPECT_EQ(m.driver().AvailableFramesFor(a.id()), 50u);
    {
      Enclave c(m);
      EXPECT_EQ(m.driver().AvailableFramesFor(a.id()), 33u);
    }
  }
  EXPECT_EQ(m.driver().AvailableFramesFor(a.id()), 100u);
}

// The fair-share ioctl and enclave_count read the enclave table under the
// driver lock: a SUVM balloon pass may run on any thread while others create
// and destroy enclaves (ThreadSanitizer reports the unlocked read).
TEST(SgxDriver, FairShareReadsRaceEnclaveChurn) {
  Machine m(TinyMachine(1000));
  Enclave host(m);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 64;
  cfg.backing_bytes = 1 << 20;
  suvm::Suvm suvm(host, cfg);
  std::atomic<bool> ballooning{false};
  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!ballooning.load()) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 500; ++i) {
      Enclave guest(m);
    }
    done.store(true);
  });
  ballooning.store(true);
  do {
    const size_t target = suvm.BalloonPass(nullptr);
    EXPECT_GE(target, 1u);
    EXPECT_LE(target, cfg.epc_pp_pages);
    EXPECT_GE(m.driver().enclave_count(), 1u);
  } while (!done.load());
  churn.join();
  EXPECT_EQ(m.driver().enclave_count(), 1u);
  EXPECT_EQ(m.driver().AvailableFramesFor(host.id()), 1000u);
}

TEST(SgxDriver, ShootdownIpisForInEnclaveThreads) {
  Machine m(TinyMachine(8));
  m.driver().ConfigureSwapper(0, 0);
  Enclave enclave(m);
  CpuContext& cpu0 = m.cpu(0);
  CpuContext& cpu1 = m.cpu(1);
  const uint64_t vaddr = enclave.Alloc(32 * kPageSize);

  enclave.Enter(cpu0);
  enclave.Enter(cpu1);
  // cpu1 touches pages from inside the enclave.
  for (uint64_t p = 0; p < 8; ++p) {
    enclave.Data(&cpu1, vaddr + p * kPageSize, 8, true);
  }
  const uint64_t aex_before = cpu1.clock.now();
  // cpu0 faults on fresh pages, forcing eviction of cpu1's pages.
  for (uint64_t p = 8; p < 32; ++p) {
    enclave.Data(&cpu0, vaddr + p * kPageSize, 8, true);
  }
  EXPECT_GT(m.driver().stats().ipis, 0u);
  // The victim thread paid for forced AEXes.
  EXPECT_GT(cpu1.clock.now(), aex_before);
  enclave.Exit(cpu1);
  enclave.Exit(cpu0);
}

TEST(SgxDriver, NoIpisWhenNoThreadInside) {
  Machine m(TinyMachine(8));
  m.driver().ConfigureSwapper(0, 0);
  Enclave enclave(m);
  const uint64_t vaddr = enclave.Alloc(32 * kPageSize);
  for (uint64_t p = 0; p < 32; ++p) {
    enclave.Data(nullptr, vaddr + p * kPageSize, 8, true);
  }
  EXPECT_EQ(m.driver().stats().ipis, 0u);
}

TEST(SgxDriver, MultiEnclavePressureEvictsAcrossEnclaves) {
  Machine m(TinyMachine(16));
  m.driver().ConfigureSwapper(0, 0);
  Enclave a(m);
  Enclave b(m);
  const uint64_t va = a.Alloc(12 * kPageSize);
  const uint64_t vb = b.Alloc(12 * kPageSize);
  for (uint64_t p = 0; p < 12; ++p) {
    a.Write(nullptr, va + p * kPageSize, &p, sizeof(p));
  }
  for (uint64_t p = 0; p < 12; ++p) {
    b.Write(nullptr, vb + p * kPageSize, &p, sizeof(p));
  }
  // Both enclaves' data must still be correct despite cross-eviction.
  for (uint64_t p = 0; p < 12; ++p) {
    uint64_t got = 0;
    a.Read(nullptr, va + p * kPageSize, &got, sizeof(got));
    EXPECT_EQ(got, p);
    b.Read(nullptr, vb + p * kPageSize, &got, sizeof(got));
    EXPECT_EQ(got, p);
  }
}

TEST(SgxDriver, ReleasePagesFreesFrames) {
  Machine m(TinyMachine(16));
  Enclave enclave(m);
  const uint64_t vaddr = enclave.Alloc(8 * kPageSize);
  for (uint64_t p = 0; p < 8; ++p) {
    enclave.Data(nullptr, vaddr + p * kPageSize, 1, true);
  }
  const size_t free_before = m.epc().free_frames();
  enclave.Free(vaddr, 8 * kPageSize);
  EXPECT_EQ(m.epc().free_frames(), free_before + 8);
}

}  // namespace
}  // namespace eleos::sim
