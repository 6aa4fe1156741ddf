// Copyright (c) Eleos reproduction authors. MIT license.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/tlb_model.h"
#include "tests/reference_tlb_model.h"

namespace eleos::sim {
namespace {

TEST(TlbModel, HitAfterInsert) {
  TlbModel tlb(64, 4);
  EXPECT_FALSE(tlb.Access(5));
  EXPECT_TRUE(tlb.Access(5));
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbModel, FlushAllInvalidatesEverything) {
  TlbModel tlb(64, 4);
  for (uint64_t p = 0; p < 32; ++p) {
    tlb.Access(p);
  }
  tlb.FlushAll();
  EXPECT_EQ(tlb.flushes(), 1u);
  for (uint64_t p = 0; p < 32; ++p) {
    EXPECT_FALSE(tlb.Access(p)) << p;
  }
}

TEST(TlbModel, CapacityEvictionLru) {
  TlbModel tlb(16, 4);  // 4 sets x 4 ways
  // Fill one set (pages congruent mod 4) beyond its associativity.
  for (uint64_t i = 0; i < 5; ++i) {
    tlb.Access(i * 4);
  }
  // The least recently used page (0) must be gone; the most recent survive.
  EXPECT_FALSE(tlb.Access(0));
  EXPECT_TRUE(tlb.Access(16));
}

TEST(TlbModel, WorkingSetWithinCapacityAllHits) {
  TlbModel tlb(1536, 12);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = 0; p < 1000; ++p) {
      tlb.Access(p);
    }
  }
  // Rounds 2 and 3 should be hit-only.
  EXPECT_EQ(tlb.misses(), 1000u);
  EXPECT_EQ(tlb.hits(), 2000u);
}

TEST(TlbModel, RejectsGeometryWithoutSets) {
  // {entries, ways}: fewer entries than ways and zero ways leave no set to
  // index; 65 ways do not fit a set's 64-bit valid mask.
  for (const auto& [entries, ways] : {std::pair<size_t, size_t>{3, 4},
                                      {64, 0},
                                      {130, 65}}) {
    EXPECT_THROW(
        {
          TlbModel tlb(entries, ways);
          tlb.Access(1);
        },
        std::invalid_argument)
        << entries << "x" << ways;
  }
  TlbModel widest(64, 64);
  EXPECT_FALSE(widest.Access(9));
  EXPECT_TRUE(widest.Access(9));
}

// --- Oracle: the model against the per-way timestamp reference ---

// With tags_256_apart, every page a set sees differs from the others by a
// multiple of 256 in its tag (vpn / sets), so all agree in the low byte the
// store compares before the full tag.
struct TlbGeometry {
  const char* name;
  size_t entries;
  size_t ways;
  bool tags_256_apart;
};
constexpr TlbGeometry kTlbGeometries[] = {{"Stlb", 1536, 12, false},
                                          {"64x4", 64, 4, false},
                                          {"16x4", 16, 4, false},
                                          {"64x1", 64, 1, false},
                                          {"StlbTags256Apart", 1536, 12, true},
                                          {"64x64Tags256Apart", 64, 64, true}};

class TlbOracle : public ::testing::TestWithParam<TlbGeometry> {};

TEST_P(TlbOracle, ResultsAndCountersMatchTimestampReference) {
  const TlbGeometry g = GetParam();
  TlbModel tlb(g.entries, g.ways);
  reference::TlbModel ref(g.entries, g.ways);
  const uint64_t sets = g.entries / g.ways;
  Xoshiro256 rng(0x71b0 + g.entries + g.ways);
  for (int op = 0; op < 40000; ++op) {
    // Half the pages come from a hot set of half the capacity, half from
    // three times the capacity, so sets both hit and overflow their ways;
    // one page in eight sits near the top of the address space.
    uint64_t vpn = rng.NextBelow(2) == 0 ? rng.NextBelow(g.entries / 2 + 1)
                                         : rng.NextBelow(3 * g.entries);
    if (rng.NextBelow(8) == 0) {
      vpn += 1ull << 40;
    }
    if (g.tags_256_apart) {
      vpn = (vpn / sets) * 256 * sets + vpn % sets;
    }
    if (rng.NextBelow(4096) == 0) {
      tlb.FlushAll();
      ref.FlushAll();
    } else {
      ASSERT_EQ(tlb.Access(vpn), ref.Access(vpn)) << "op " << op;
    }
  }
  EXPECT_EQ(tlb.hits(), ref.hits());
  EXPECT_EQ(tlb.misses(), ref.misses());
  EXPECT_EQ(tlb.flushes(), ref.flushes());
  EXPECT_GT(tlb.hits(), 5000u);
  EXPECT_GT(tlb.misses(), 5000u);
  EXPECT_GT(tlb.flushes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Streams, TlbOracle, ::testing::ValuesIn(kTlbGeometries),
                         [](const ::testing::TestParamInfo<TlbGeometry>& p) {
                           return std::string(p.param.name);
                         });

}  // namespace
}  // namespace eleos::sim
