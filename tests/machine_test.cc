// Copyright (c) Eleos reproduction authors. MIT license.
//
// Machine-level accounting semantics: Access vs StreamAccess, the prefetch
// rule, scratch pools, cache pollution with classes of service, synthetic
// address ranges, and the network link ceiling.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "src/sim/machine.h"

namespace eleos::sim {
namespace {

TEST(MachineAccess, NullCpuIsFreeAndStateless) {
  Machine m;
  m.Access(nullptr, 0x1000, 4096, true, MemKind::kUntrusted);
  m.StreamAccess(nullptr, 0x1000, 4096, true, MemKind::kUntrusted);
  m.TouchScratch(nullptr, 4096);
  EXPECT_EQ(m.llc().misses(), 0u);
}

TEST(MachineAccess, ChargesPerLine) {
  Machine m;
  CpuContext& a = m.cpu(0);
  CpuContext& b = m.cpu(1);
  m.Access(&a, 0x10000, 64, false, MemKind::kUntrusted);    // 1 line
  m.Access(&b, 0x20000, 128, false, MemKind::kUntrusted);   // 2 lines
  EXPECT_GT(b.clock.now(), a.clock.now());
}

TEST(MachineAccess, PrefetchDiscountsLinesBeyondTwo) {
  // One 4 KiB access should cost far less than 64 separate line accesses.
  Machine m;
  CpuContext& bulk = m.cpu(0);
  CpuContext& pieces = m.cpu(1);
  m.Access(&bulk, 0x100000, 4096, false, MemKind::kUntrusted);
  for (int i = 0; i < 64; ++i) {
    m.Access(&pieces, 0x200000 + static_cast<uint64_t>(i) * 64, 8, false,
             MemKind::kUntrusted);
  }
  EXPECT_LT(bulk.clock.now() * 2, pieces.clock.now());
}

TEST(MachineAccess, RepeatAccessHitsCache) {
  Machine m;
  CpuContext& cpu = m.cpu(0);
  m.Access(&cpu, 0x30000, 64, false, MemKind::kUntrusted);
  const uint64_t cold = cpu.clock.now();
  m.Access(&cpu, 0x30000, 64, false, MemKind::kUntrusted);
  const uint64_t warm = cpu.clock.now() - cold;
  EXPECT_LT(warm, cold);
}

TEST(MachineAccess, EpcCostsMoreThanUntrustedOnMiss) {
  Machine m;
  CpuContext& a = m.cpu(0);
  CpuContext& b = m.cpu(1);
  m.Access(&a, 0x40000, 64, false, MemKind::kUntrusted);
  m.Access(&b, 0x50000, 64, false, MemKind::kEpc);
  EXPECT_GT(b.clock.now(), a.clock.now());
}

TEST(MachineScratch, PoolBoundsTheFootprint) {
  // A small pool touches the same lines over and over: after the first lap,
  // scratch traffic stops missing.
  Machine m;
  CpuContext& cpu = m.cpu(0);
  const size_t pool = 64 * 1024;
  for (int lap = 0; lap < 4; ++lap) {
    m.TouchScratch(&cpu, pool, pool);
  }
  const uint64_t misses_after_laps = m.llc().misses();
  m.TouchScratch(&cpu, pool, pool);
  // One more full lap adds no new misses.
  EXPECT_EQ(m.llc().misses(), misses_after_laps);
}

TEST(MachinePollute, RespectsClassOfService) {
  Machine m;
  m.llc().EnablePartitioning(0.75);
  // Fill the enclave partition.
  const size_t ws = (m.costs().llc_bytes / m.costs().llc_line) * 12 / 16;
  for (uint64_t i = 0; i < ws; ++i) {
    m.llc().Access(i, false, MemKind::kUntrusted, kCosEnclave);
  }
  // Worker-cos pollution of 4x the LLC must not evict enclave lines.
  m.PolluteCache(4 * m.costs().llc_bytes, kCosRpcWorker,
                 4 * m.costs().llc_bytes);
  m.llc().ResetStats();
  for (uint64_t i = 0; i < ws; ++i) {
    m.llc().Access(i, false, MemKind::kUntrusted, kCosEnclave);
  }
  EXPECT_GT(static_cast<double>(m.llc().hits()) / static_cast<double>(ws), 0.95);
}

TEST(Network, BandwidthCeiling) {
  const CostModel c;
  // 1 KiB request + 1 KiB response: 10 Gb/s / 2 KiB ~= 610k req/s.
  EXPECT_NEAR(c.MaxRequestsPerSecond(1024, 1024), 610351.0, 2000.0);
}

TEST(CostModel, ConversionHelpers) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.CyclesToSeconds(3'400'000'000ull), 1.0);
  EXPECT_DOUBLE_EQ(c.OpsPerSecond(100, 3'400'000'000ull), 100.0);
  EXPECT_EQ(c.OpsPerSecond(100, 0), 0.0);
}

TEST(Machine, CpusAreIndependent) {
  Machine m;
  for (size_t i = 0; i < m.num_cpus(); ++i) {
    EXPECT_EQ(m.cpu(i).id, static_cast<int>(i));
    EXPECT_EQ(m.cpu(i).clock.now(), 0u);
  }
  m.cpu(3).Charge(100);
  EXPECT_EQ(m.cpu(3).clock.now(), 100u);
  EXPECT_EQ(m.cpu(2).clock.now(), 0u);
}

TEST(ScopedCpu, BindsAndRestores) {
  Machine m;
  EXPECT_EQ(CurrentCpu(), nullptr);
  {
    ScopedCpu outer(&m.cpu(0));
    EXPECT_EQ(CurrentCpu(), &m.cpu(0));
    {
      ScopedCpu inner(&m.cpu(1));
      EXPECT_EQ(CurrentCpu(), &m.cpu(1));
    }
    EXPECT_EQ(CurrentCpu(), &m.cpu(0));
  }
  EXPECT_EQ(CurrentCpu(), nullptr);
}

TEST(ReserveRange, PageAlignedInRequestOrderAndEqualAcrossMachines) {
  Machine a;
  Machine b;
  const uint64_t first = a.ReserveRange(100);
  const uint64_t second = a.ReserveRange(3 * kPageSize + 1);
  const uint64_t third = a.ReserveRange(0);
  EXPECT_EQ(first % kPageSize, 0u);
  EXPECT_EQ(second, first + kPageSize);
  EXPECT_EQ(third, second + 4 * kPageSize);
  EXPECT_EQ(a.ReserveRange(kPageSize), third);  // an empty range takes none
  // A fresh machine hands out the same sequence, whatever the heap holds.
  EXPECT_EQ(b.ReserveRange(100), first);
  EXPECT_EQ(b.ReserveRange(3 * kPageSize + 1), second);
}

TEST(ReserveRange, ThrowsWhenTheSyntheticSpaceRunsOut) {
  Machine m;
  EXPECT_THROW(m.ReserveRange(SIZE_MAX), std::length_error);
  const uint64_t base = m.ReserveRange(kPageSize);
  EXPECT_THROW(m.ReserveRange(1ull << 46), std::length_error);
  Machine fresh;
  EXPECT_EQ(fresh.ReserveRange(kPageSize), base);
}

}  // namespace
}  // namespace eleos::sim
