// Copyright (c) Eleos reproduction authors. MIT license.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/spinlock.h"
#include "src/sim/cache_model.h"
#include "src/sim/cost_model.h"
#include "src/sim/machine.h"
#include "tests/reference_tlb_model.h"

namespace eleos::sim {

// The per-line, per-way-timestamp CacheModel and the per-line Machine access
// loops that the mask-and-shift model with one lock per range and the
// exact-LRU tag store replaced, verbatim; Machine charges TLB walks through
// the timestamp TLB of reference_tlb_model.h. Every virtual number of the
// benchmarks flows through the LLC model, so only these oracles can see the
// model drift from the original hits, misses and costs.
namespace reference {

class CacheModel {
 public:
  explicit CacheModel(const CostModel& costs);

  void SetWayMask(int cos, uint64_t mask);
  void EnablePartitioning(double enclave_fraction = 0.75);
  void DisablePartitioning();

  uint64_t Access(uint64_t line_addr, bool write, MemKind kind, int cos);

  uint64_t hits() const {
    std::lock_guard guard(lock_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard guard(lock_);
    return misses_;
  }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t last_used = 0;
    bool valid = false;
  };

  bool MeeTreeAccess(uint64_t page);  // returns hit; requires lock_ held

  mutable Spinlock lock_;  // guards lines_/tick_/hits_/misses_ and the MEE LRU
  const CostModel& costs_;
  size_t ways_;
  size_t sets_;
  std::vector<Line> lines_;
  uint64_t way_mask_[kNumCos];
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;

  // Tiny fully-associative LRU of integrity-tree nodes (one node per page).
  std::vector<uint64_t> mee_pages_;
  std::vector<uint64_t> mee_used_;
  uint64_t mee_tick_ = 0;
};

CacheModel::CacheModel(const CostModel& costs)
    : costs_(costs),
      ways_(costs.llc_ways),
      sets_(costs.llc_bytes / (costs.llc_line * costs.llc_ways)),
      lines_(sets_ * ways_),
      mee_pages_(costs.mee_tree_cache_pages, UINT64_MAX),
      mee_used_(costs.mee_tree_cache_pages, 0) {
  const uint64_t all = (ways_ >= 64) ? ~0ull : ((1ull << ways_) - 1);
  for (int i = 0; i < kNumCos; ++i) {
    way_mask_[i] = all;
  }
}

void CacheModel::SetWayMask(int cos, uint64_t mask) {
  if (cos >= 0 && cos < kNumCos && mask != 0) {
    way_mask_[cos] = mask;
  }
}

void CacheModel::EnablePartitioning(double enclave_fraction) {
  const size_t enclave_ways =
      static_cast<size_t>(std::lround(enclave_fraction * static_cast<double>(ways_)));
  const size_t clamped = enclave_ways == 0 ? 1 : (enclave_ways >= ways_ ? ways_ - 1 : enclave_ways);
  const uint64_t enclave_mask = (1ull << clamped) - 1;
  const uint64_t all = (ways_ >= 64) ? ~0ull : ((1ull << ways_) - 1);
  SetWayMask(kCosEnclave, enclave_mask);
  SetWayMask(kCosRpcWorker, all & ~enclave_mask);
}

void CacheModel::DisablePartitioning() {
  const uint64_t all = (ways_ >= 64) ? ~0ull : ((1ull << ways_) - 1);
  for (int i = 0; i < kNumCos; ++i) {
    way_mask_[i] = all;
  }
}

bool CacheModel::MeeTreeAccess(uint64_t page) {
  ++mee_tick_;
  size_t victim = 0;
  uint64_t oldest = UINT64_MAX;
  for (size_t i = 0; i < mee_pages_.size(); ++i) {
    if (mee_pages_[i] == page) {
      mee_used_[i] = mee_tick_;
      return true;
    }
    if (mee_used_[i] < oldest) {
      oldest = mee_used_[i];
      victim = i;
    }
  }
  mee_pages_[victim] = page;
  mee_used_[victim] = mee_tick_;
  return false;
}

uint64_t CacheModel::Access(uint64_t line_addr, bool write, MemKind kind, int cos) {
  std::lock_guard guard(lock_);
  const size_t set = static_cast<size_t>(line_addr) % sets_;
  const uint64_t tag = line_addr / sets_;
  Line* base = &lines_[set * ways_];
  ++tick_;

  // Lookup: all ways, regardless of CAT mask.
  for (size_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].last_used = tick_;
      ++hits_;
      // Rough split: treat a fraction of hits as L1-served. The model has no
      // L1, so every 4th access pays the LLC-hit latency, the rest L1.
      return (tick_ & 3) == 0 ? costs_.llc_hit_cycles : costs_.l1_hit_cycles;
    }
  }
  ++misses_;

  // Fill: restricted to the CAT mask of this class of service.
  const uint64_t mask = (cos >= 0 && cos < kNumCos) ? way_mask_[cos] : way_mask_[0];
  size_t victim = ways_;  // invalid
  uint64_t oldest = UINT64_MAX;
  for (size_t w = 0; w < ways_; ++w) {
    if ((mask & (1ull << w)) == 0) {
      continue;
    }
    if (!base[w].valid) {
      victim = w;
      break;
    }
    if (base[w].last_used < oldest) {
      oldest = base[w].last_used;
      victim = w;
    }
  }
  if (victim < ways_) {
    base[victim] = {tag, tick_, true};
  }

  if (kind == MemKind::kUntrusted) {
    return costs_.llc_miss_cycles;
  }
  // EPC miss: the MEE decrypts the line and walks the integrity tree.
  double factor;
  if (write) {
    const bool tree_hit = MeeTreeAccess(line_addr >> 6);  // line -> page
    factor = tree_hit ? costs_.epc_miss_write_factor_tree_hit
                      : costs_.epc_miss_write_factor_tree_miss;
  } else {
    factor = costs_.epc_miss_read_factor;
  }
  return static_cast<uint64_t>(static_cast<double>(costs_.llc_miss_cycles) * factor);
}

// Machine::Access, StreamAccess and PolluteCache over one CPU, with the
// charge that ChargeCost would add to its clock.
constexpr uint64_t kScratchBase = 0x3f00'0000'0000ull;
constexpr uint64_t kDefaultScratchPool = 4ull << 20;  // recycled kernel buffers

struct Machine {
  explicit Machine(const CostModel& costs) : costs_(costs), llc_(costs_) {}

  void Access(uint64_t addr, size_t len, bool write, MemKind kind) {
    if (len == 0) {
      return;
    }
    const uint64_t first_line = addr >> 6;
    const uint64_t last_line = (addr + len - 1) >> 6;
    uint64_t prev_vpn = UINT64_MAX;
    uint64_t charged = 0;
    size_t line_index = 0;
    for (uint64_t line = first_line; line <= last_line; ++line, ++line_index) {
      const uint64_t vpn = line >> 6;  // 64 lines per 4 KiB page
      if (vpn != prev_vpn) {
        prev_vpn = vpn;
        if (!tlb.Access(vpn)) {
          charged += kind == MemKind::kEpc ? costs_.tlb_walk_epc_cycles
                                           : costs_.tlb_walk_cycles;
        }
      }
      uint64_t cost = llc_.Access(line, write, kind, cos);
      // Hardware prefetch: within one contiguous access, misses past the first
      // two lines are streamed, not paid at random-miss latency.
      if (line_index >= 2 && cost >= costs_.llc_miss_cycles) {
        cost = kind == MemKind::kEpc ? costs_.stream_epc_line_cycles
                                     : costs_.stream_line_cycles;
      }
      charged += cost;
    }
    clock += charged;
  }

  void StreamAccess(uint64_t addr, size_t len, bool write, MemKind kind) {
    if (len == 0) {
      return;
    }
    const uint64_t first_line = addr >> 6;
    const uint64_t last_line = (addr + len - 1) >> 6;
    uint64_t prev_vpn = UINT64_MAX;
    uint64_t charged = 0;
    for (uint64_t line = first_line; line <= last_line; ++line) {
      const uint64_t vpn = line >> 6;
      if (vpn != prev_vpn) {
        prev_vpn = vpn;
        if (!tlb.Access(vpn)) {
          charged += kind == MemKind::kEpc ? costs_.tlb_walk_epc_cycles
                                           : costs_.tlb_walk_cycles;
        }
      }
      llc_.Access(line, write, kind, cos);  // state effect only
      charged += kind == MemKind::kEpc ? costs_.stream_epc_line_cycles
                                       : costs_.stream_line_cycles;
    }
    clock += charged;
  }

  void PolluteCache(size_t bytes, int pollute_cos, size_t pool_bytes) {
    if (bytes == 0) {
      return;
    }
    const uint64_t pool = pool_bytes == 0 ? kDefaultScratchPool : pool_bytes;
    const uint64_t cursor = scratch_cursor_.fetch_add(bytes, std::memory_order_relaxed);
    const uint64_t addr = kScratchBase + (cursor % pool);
    const uint64_t first_line = addr >> 6;
    const uint64_t last_line = (addr + bytes - 1) >> 6;
    for (uint64_t line = first_line; line <= last_line; ++line) {
      llc_.Access(line, /*write=*/true, MemKind::kUntrusted, pollute_cos);
    }
  }

  CostModel costs_;
  CacheModel llc_;
  TlbModel tlb;
  int cos = kCosShared;
  uint64_t clock = 0;
  std::atomic<uint64_t> scratch_cursor_{0};
};

}  // namespace reference

namespace {

CostModel SmallCache() {
  CostModel c;
  c.llc_bytes = 64 * 1024;  // 64 sets x 16 ways x 64 B
  return c;
}

TEST(CacheModel, HitAfterMiss) {
  CostModel c = SmallCache();
  CacheModel llc(c);
  const uint64_t cost1 = llc.Access(1000, false, MemKind::kUntrusted, kCosShared);
  EXPECT_EQ(cost1, c.llc_miss_cycles);
  const uint64_t cost2 = llc.Access(1000, false, MemKind::kUntrusted, kCosShared);
  EXPECT_LE(cost2, c.llc_hit_cycles);
  EXPECT_EQ(llc.hits(), 1u);
  EXPECT_EQ(llc.misses(), 1u);
}

TEST(CacheModel, EpcMissCostsTable1Factors) {
  CostModel c = SmallCache();
  CacheModel llc(c);
  const uint64_t read_miss = llc.Access(42, false, MemKind::kEpc, kCosShared);
  EXPECT_EQ(read_miss,
            static_cast<uint64_t>(c.llc_miss_cycles * c.epc_miss_read_factor));
  // A write to a page whose MEE tree node was never cached: tree-miss factor.
  const uint64_t write_miss = llc.Access(1 << 20, true, MemKind::kEpc, kCosShared);
  EXPECT_EQ(write_miss, static_cast<uint64_t>(c.llc_miss_cycles *
                                              c.epc_miss_write_factor_tree_miss));
  // Another write miss to the same page: the tree node is now cached.
  const uint64_t write_miss2 =
      llc.Access((1 << 20) + 1, true, MemKind::kEpc, kCosShared);
  EXPECT_EQ(write_miss2, static_cast<uint64_t>(c.llc_miss_cycles *
                                               c.epc_miss_write_factor_tree_hit));
}

TEST(CacheModel, CapacityEviction) {
  CostModel c = SmallCache();
  CacheModel llc(c);
  const size_t lines = (c.llc_bytes / c.llc_line) * 2;  // 2x capacity
  for (uint64_t i = 0; i < lines; ++i) {
    llc.Access(i, false, MemKind::kUntrusted, kCosShared);
  }
  EXPECT_EQ(llc.misses(), lines);  // sequential sweep of 2x capacity: all miss
  // Re-touch the first line: it must have been evicted.
  llc.ResetStats();
  llc.Access(0, false, MemKind::kUntrusted, kCosShared);
  EXPECT_EQ(llc.misses(), 1u);
}

TEST(CacheModel, CatPartitioningLimitsFills) {
  CostModel c = SmallCache();
  CacheModel llc(c);
  llc.EnablePartitioning(0.75);  // enclave 12 ways, worker 4 ways

  // Enclave working set sized to its 12-way partition (LRU thrashes if it
  // exceeds the partition, with or without CAT).
  const size_t cache_lines = c.llc_bytes / c.llc_line;
  const size_t ws_lines = cache_lines * 12 / 16;
  for (uint64_t i = 0; i < ws_lines; ++i) {
    llc.Access(i, false, MemKind::kUntrusted, kCosEnclave);
  }
  // Stream 4x the cache through the worker's class of service.
  for (uint64_t i = 1 << 20; i < (1 << 20) + 4 * cache_lines; ++i) {
    llc.Access(i, true, MemKind::kUntrusted, kCosRpcWorker);
  }
  // Enclave lines in the 12 protected ways must have survived.
  llc.ResetStats();
  for (uint64_t i = 0; i < ws_lines; ++i) {
    llc.Access(i, false, MemKind::kUntrusted, kCosEnclave);
  }
  const double hit_rate =
      static_cast<double>(llc.hits()) / static_cast<double>(ws_lines);
  EXPECT_GT(hit_rate, 0.95);

  // Without partitioning, the same worker stream wipes out everything.
  llc.DisablePartitioning();
  for (uint64_t i = 0; i < ws_lines; ++i) {
    llc.Access(i, false, MemKind::kUntrusted, kCosEnclave);
  }
  for (uint64_t i = 1 << 20; i < (1 << 20) + 4 * cache_lines; ++i) {
    llc.Access(i, true, MemKind::kUntrusted, kCosRpcWorker);
  }
  llc.ResetStats();
  for (uint64_t i = 0; i < ws_lines; ++i) {
    llc.Access(i, false, MemKind::kUntrusted, kCosEnclave);
  }
  const double hit_rate_nocat =
      static_cast<double>(llc.hits()) / static_cast<double>(ws_lines);
  EXPECT_LT(hit_rate_nocat, 0.05);
}

TEST(CacheModel, PartitionFractionClamped) {
  CostModel c = SmallCache();
  CacheModel llc(c);
  llc.EnablePartitioning(0.0);   // clamps to >= 1 way each
  llc.EnablePartitioning(1.0);   // clamps to <= ways-1
  // No crash and accesses still work.
  EXPECT_GT(llc.Access(7, false, MemKind::kUntrusted, kCosEnclave), 0u);
  EXPECT_GT(llc.Access(9, false, MemKind::kUntrusted, kCosRpcWorker), 0u);
}

// --- Geometry the model cannot represent ---

TEST(CacheModelGeometry, RejectsZeroSets) {
  CostModel c;
  c.llc_bytes = 512;  // below one line per way
  EXPECT_THROW(CacheModel{c}, std::invalid_argument);
}

TEST(CacheModelGeometry, RejectsSetCountNotPowerOfTwo) {
  CostModel c;
  c.llc_ways = 12;  // 8 MiB / (64 B x 12) = 10922.67 sets
  EXPECT_THROW(CacheModel{c}, std::invalid_argument);
  c.llc_ways = 16;
  c.llc_bytes = 3 << 20;  // 3072 sets
  EXPECT_THROW(CacheModel{c}, std::invalid_argument);
}

TEST(CacheModelGeometry, RejectsWaysOutsideOneTo64) {
  CostModel c;
  c.llc_ways = 0;
  EXPECT_THROW(CacheModel{c}, std::invalid_argument);
  c.llc_ways = 128;  // 1024 sets: a power of two, but past a uint64_t mask
  EXPECT_THROW(CacheModel{c}, std::invalid_argument);
  c.llc_ways = 64;
  CacheModel widest(c);
  EXPECT_EQ(widest.num_ways(), 64u);
  EXPECT_EQ(widest.num_sets(), 2048u);
  widest.EnablePartitioning(0.75);
  EXPECT_EQ(widest.Access(5, true, MemKind::kEpc, kCosRpcWorker),
            static_cast<uint64_t>(c.llc_miss_cycles *
                                  c.epc_miss_write_factor_tree_miss));
}

TEST(CacheModelGeometry, RejectsLinesOtherThan64Bytes) {
  for (size_t line : {32, 128}) {
    CostModel c;
    c.llc_line = line;  // 4096 or 1024 sets: only the line size is wrong
    EXPECT_THROW(CacheModel{c}, std::invalid_argument) << line;
  }
  MachineConfig mc;
  mc.costs.llc_line = 128;
  EXPECT_THROW(Machine{mc}, std::invalid_argument);
}

TEST(CacheModelGeometry, RejectsMeeCacheOutsideOneTo64) {
  for (size_t pages : {0, 65}) {
    CostModel c;
    c.mee_tree_cache_pages = pages;  // the MEE node cache is one set of ways
    EXPECT_THROW(
        {
          CacheModel llc(c);
          llc.Access(0, /*write=*/true, MemKind::kEpc, kCosShared);
        },
        std::invalid_argument)
        << pages;
    MachineConfig mc;
    mc.costs = c;
    EXPECT_THROW(Machine{mc}, std::invalid_argument) << pages;
  }
  CostModel c;
  c.mee_tree_cache_pages = 1;
  CacheModel one(c);
  const auto write_miss = [&](uint64_t line) {
    return one.Access(line, true, MemKind::kEpc, kCosShared);
  };
  const uint64_t tree_miss =
      static_cast<uint64_t>(c.llc_miss_cycles * c.epc_miss_write_factor_tree_miss);
  const uint64_t tree_hit =
      static_cast<uint64_t>(c.llc_miss_cycles * c.epc_miss_write_factor_tree_hit);
  EXPECT_EQ(write_miss(0), tree_miss);   // page 0's node fills the one way
  EXPECT_EQ(write_miss(1), tree_hit);    // same page
  EXPECT_EQ(write_miss(64), tree_miss);  // page 1 evicts page 0's node
  EXPECT_EQ(write_miss(2), tree_miss);
}

// --- Racing ranges (the one threaded case; TSan runs only this suite) ---

// AccessRange takes the LLC lock once per range, so racing CPUs see a range
// enter the LLC as one unit (DESIGN.md §15). On one set of W ways, two
// threads released together each access W lines of their own. Exact LRU then
// keeps the last W lines accessed: one thread's whole range if ranges are
// whole, part of each if they interleave line by line. A probe of thread 0's
// range therefore hits all W lines or none.
TEST(LlcRace, RacingRangesEnterTheLlcWhole) {
  constexpr size_t kWays = 16;
  constexpr int kRounds = 1000;
  CostModel c;
  c.llc_bytes = 64 * kWays;
  c.llc_ways = kWays;
  CacheModel llc(c);
  ASSERT_EQ(llc.num_sets(), 1u);
  const auto access_range = [&](uint64_t t) {
    llc.AccessRange(t * kWays, t * kWays + kWays - 1, /*write=*/false,
                    MemKind::kUntrusted, kCosShared);
  };
  int split_rounds = 0;
  int first_split = -1;
  uint64_t first_split_hits = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Waiters yield: a tight spin holds a CPU that the other thread needs
    // when ctest runs suites in parallel, and costs seconds there.
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        access_range(t);
      });
    }
    while (ready.load() < 2) {
      std::this_thread::yield();
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) {
      th.join();
    }
    const uint64_t before = llc.hits();
    access_range(0);
    const uint64_t hits = llc.hits() - before;
    if (hits != 0 && hits != kWays) {
      if (split_rounds++ == 0) {
        first_split = round;
        first_split_hits = hits;
      }
    }
  }
  EXPECT_EQ(split_rounds, 0) << "round " << first_split << " probed "
                             << first_split_hits << " of " << kWays
                             << " lines of one range resident";
}

// --- Oracle: the model against the per-line reference ---

// The 64-way geometry uses way 63 and the all-ones mask and has a one-page
// MEE node cache; the others keep the default 64 pages. A tag stride of 256
// makes every tag a set sees, and every page the MEE node cache sees, agree
// in the low byte that the tag store compares before the full tag.
struct Geometry {
  const char* name;
  size_t llc_bytes;
  size_t ways;
  size_t mee_pages;
  uint64_t tag_stride;
};
constexpr Geometry kGeometries[] = {{"8MiB", 8ull << 20, 16, 64, 1},
                                    {"64KiB", 64 << 10, 16, 64, 1},
                                    {"64Way", 256 << 10, 64, 1, 1},
                                    {"1Way", 32 << 10, 1, 64, 1},
                                    {"64KiBTags256Apart", 64 << 10, 16, 64, 256}};

// Class-of-service fill masks: none; Eleos's 75/25 split (dropped halfway
// through the CacheModel stream); or, every 500 ops, a fresh random (mostly
// non-contiguous) or single-bit mask for each class.
enum class Masks { kShared, kCat, kSparse, kOneBit };

using OracleParam = std::tuple<Geometry, Masks, MemKind>;

class LlcOracle : public ::testing::TestWithParam<OracleParam> {
 protected:
  CostModel Costs() const {
    const Geometry& g = std::get<0>(GetParam());
    CostModel c;
    c.llc_bytes = g.llc_bytes;
    c.llc_ways = g.ways;
    c.mee_tree_cache_pages = g.mee_pages;
    return c;
  }
  MemKind kind() const { return std::get<2>(GetParam()); }

  // Sets the same masks on both models before op `op`; with CAT the split
  // ends at op `shared_from`.
  void SetMasks(int op, int shared_from, CacheModel& llc,
                reference::CacheModel& ref) {
    const Masks masks = std::get<1>(GetParam());
    if (masks == Masks::kCat) {
      if (op == 0) {
        llc.EnablePartitioning(0.75);
        ref.EnablePartitioning(0.75);
      } else if (op == shared_from) {
        llc.DisablePartitioning();
        ref.DisablePartitioning();
      }
      return;
    }
    if (masks == Masks::kShared || op % 500 != 0) {
      return;
    }
    for (int cos = 0; cos < kNumCos; ++cos) {
      const uint64_t mask = masks == Masks::kSparse
                                ? mask_rng_.Next()
                                : uint64_t{1} << mask_rng_.NextBelow(llc.num_ways());
      llc.SetWayMask(cos, mask);
      ref.SetWayMask(cos, mask);
    }
  }

  // A line in one of the first 512 sets (all of a small geometry), with one
  // of 3 x ways tags spaced by the geometry's stride, so sets overflow their
  // ways and EPC writes both hit and miss the MEE node cache; one line in
  // eight sits near the top of the address space.
  uint64_t RandomLine(Xoshiro256& rng, const CacheModel& llc) const {
    const uint64_t sets = llc.num_sets();
    const uint64_t set = rng.NextBelow(std::min<uint64_t>(sets, 512));
    const uint64_t high = rng.NextBelow(8) == 0 ? 1ull << 40 : 0;
    const uint64_t stride = std::get<0>(GetParam()).tag_stride;
    return (high + rng.NextBelow(3 * llc.num_ways()) * stride) * sets + set;
  }

  // Mostly the three classes of service; one pick in eight is out of range
  // and fills through class 0's mask.
  static int RandomCos(Xoshiro256& rng) {
    const int cos = static_cast<int>(rng.NextBelow(8));
    return cos < kNumCos ? cos : (cos == 7 ? -1 : cos % kNumCos);
  }

 private:
  Xoshiro256 mask_rng_{0x3a5c};
};

TEST_P(LlcOracle, CostsHitsAndMissesMatchPerLineReference) {
  const CostModel costs = Costs();
  CacheModel llc(costs);
  reference::CacheModel ref(costs);
  const uint64_t streamed = kind() == MemKind::kEpc ? costs.stream_epc_line_cycles
                                                    : costs.stream_line_cycles;
  Xoshiro256 rng(0x11c0 + llc.num_sets());
  for (int op = 0; op < 6000; ++op) {
    SetMasks(op, /*shared_from=*/3000, llc, ref);
    const uint64_t first = RandomLine(rng, llc);
    const bool write = rng.NextBelow(2) == 0;
    const int cos = RandomCos(rng);
    if (rng.NextBelow(2) == 0) {
      ASSERT_EQ(llc.Access(first, write, kind(), cos),
                ref.Access(first, write, kind(), cos))
          << "op " << op;
      continue;
    }
    const uint64_t last = first + rng.NextBelow(100);
    uint64_t want = 0;
    for (uint64_t line = first; line <= last; ++line) {
      const uint64_t cost = ref.Access(line, write, kind(), cos);
      want += line - first >= 2 && cost >= costs.llc_miss_cycles ? streamed : cost;
    }
    ASSERT_EQ(llc.AccessRange(first, last, write, kind(), cos), want)
        << "op " << op;
  }
  EXPECT_EQ(llc.hits(), ref.hits());
  EXPECT_EQ(llc.misses(), ref.misses());
  EXPECT_GT(llc.hits(), 5000u);
  EXPECT_GT(llc.misses(), 5000u);
}

TEST_P(LlcOracle, MachineClocksAndCountersMatchPerLineReference) {
  MachineConfig mc;
  mc.costs = Costs();
  Machine m(mc);
  reference::Machine ref(mc.costs);
  CpuContext& cpu = m.cpu(0);
  Xoshiro256 rng(0x3ac1 + m.llc().num_sets());
  for (int op = 0; op < 2500; ++op) {
    SetMasks(op, /*shared_from=*/-1, m.llc(), ref.llc_);
    const uint64_t addr = RandomLine(rng, m.llc()) * 64 + rng.NextBelow(64);
    const size_t len = 1 + rng.NextBelow(3 * 4096);
    const bool write = rng.NextBelow(2) == 0;
    cpu.cos = ref.cos = RandomCos(rng);
    switch (rng.NextBelow(3)) {
      case 0:
        m.Access(&cpu, addr, len, write, kind());
        ref.Access(addr, len, write, kind());
        break;
      case 1:
        m.StreamAccess(&cpu, addr, len, write, kind());
        ref.StreamAccess(addr, len, write, kind());
        break;
      default: {
        const size_t pool = rng.NextBelow(2) == 0 ? 0 : 256 << 10;
        m.PolluteCache(len, cpu.cos, pool);
        ref.PolluteCache(len, cpu.cos, pool);
        break;
      }
    }
    ASSERT_EQ(cpu.clock.now(), ref.clock) << "op " << op;
  }
  EXPECT_EQ(m.llc().hits(), ref.llc_.hits());
  EXPECT_EQ(m.llc().misses(), ref.llc_.misses());
  EXPECT_EQ(cpu.tlb.hits(), ref.tlb.hits());
  EXPECT_EQ(cpu.tlb.misses(), ref.tlb.misses());
  EXPECT_EQ(m.metrics().GetCounter("sim.cycles.cache")->value(), ref.clock);
}

constexpr const char* kMaskNames[] = {"_Shared", "_Cat", "_Sparse", "_OneBit"};

INSTANTIATE_TEST_SUITE_P(
    Streams, LlcOracle,
    ::testing::Combine(::testing::ValuesIn(kGeometries),
                       ::testing::Values(Masks::kShared, Masks::kCat,
                                         Masks::kSparse, Masks::kOneBit),
                       ::testing::Values(MemKind::kUntrusted, MemKind::kEpc)),
    [](const ::testing::TestParamInfo<OracleParam>& p) {
      return std::string(std::get<0>(p.param).name) +
             kMaskNames[static_cast<int>(std::get<1>(p.param))] +
             (std::get<2>(p.param) == MemKind::kEpc ? "_Epc" : "_Untrusted");
    });

}  // namespace
}  // namespace eleos::sim
