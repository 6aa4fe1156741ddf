// Copyright (c) Eleos reproduction authors. MIT license.
//
// EPC++ PageCache invariants: slot double-free detection, balloon shrink
// below current occupancy while pages are pinned, and free-list/target
// bookkeeping.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/suvm/page_cache.h"
#include "src/suvm/suvm.h"
#include "tests/test_status.h"

namespace eleos::suvm {
namespace {

struct Bare {
  Bare() {
    machine = std::make_unique<sim::Machine>();
    enclave = std::make_unique<sim::Enclave>(*machine);
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Enclave> enclave;
};

TEST(PageCache, AllocFreeRoundTrip) {
  Bare b;
  PageCache pc(*b.enclave, 4);
  EXPECT_EQ(pc.in_use(), 0u);
  EXPECT_EQ(pc.free_slots(), 4u);
  std::vector<int> slots;
  for (int i = 0; i < 4; ++i) {
    const int s = pc.AllocSlot();
    ASSERT_GE(s, 0);
    slots.push_back(s);
  }
  EXPECT_EQ(pc.AllocSlot(), -1);
  EXPECT_EQ(pc.in_use(), 4u);
  for (int s : slots) {
    pc.FreeSlot(s);
  }
  EXPECT_EQ(pc.in_use(), 0u);
}

TEST(PageCache, DoubleFreeSlotThrows) {
  Bare b;
  PageCache pc(*b.enclave, 4);
  const int s = pc.AllocSlot();
  ASSERT_GE(s, 0);
  pc.FreeSlot(s);
  EXPECT_THROW(pc.FreeSlot(s), std::logic_error);
  // The failed free must not have corrupted the bookkeeping.
  EXPECT_EQ(pc.in_use(), 0u);
  EXPECT_EQ(pc.free_slots(), 4u);
}

TEST(PageCache, FreeingNeverAllocatedSlotThrows) {
  Bare b;
  PageCache pc(*b.enclave, 4);
  EXPECT_THROW(pc.FreeSlot(2), std::logic_error);  // still on the free list
  EXPECT_THROW(pc.FreeSlot(-1), std::logic_error);
  EXPECT_THROW(pc.FreeSlot(4), std::logic_error);  // out of range
}

TEST(PageCache, TargetClampsToMaxPages) {
  Bare b;
  PageCache pc(*b.enclave, 4);
  pc.set_target_pages(100);
  EXPECT_EQ(pc.target_pages(), 4u);
  pc.set_target_pages(2);
  EXPECT_EQ(pc.target_pages(), 2u);
}

TEST(PageCache, AllocRespectsBalloonTarget) {
  Bare b;
  PageCache pc(*b.enclave, 4);
  pc.set_target_pages(2);
  const int s0 = pc.AllocSlot();
  const int s1 = pc.AllocSlot();
  ASSERT_GE(s0, 0);
  ASSERT_GE(s1, 0);
  EXPECT_EQ(pc.AllocSlot(), -1) << "target must cap allocation below max";
  EXPECT_EQ(pc.free_slots(), 0u);
  pc.FreeSlot(s0);
  pc.FreeSlot(s1);
}

// Shrinking EPC++ below current occupancy while every page is pinned: the
// resize must set the target, evict nothing (pins win), leave the cache
// consistent, and complete the shrink once the pins are released.
TEST(PageCache, ResizeBelowOccupancyWithPinnedPages) {
  Bare b;
  SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 4 << 20;
  cfg.swapper_low_watermark = 0;
  Suvm suvm(*b.enclave, cfg);

  const uint64_t addr = ValueOrThrow(suvm.Malloc(8 * sim::kPageSize));
  const uint64_t base = addr / sim::kPageSize;
  std::vector<int> slots;
  for (uint64_t p = 0; p < 8; ++p) {
    int slot = -1;
    ASSERT_OK(suvm.PinPage(nullptr, base + p, &slot));
    slots.push_back(slot);
  }
  ASSERT_EQ(suvm.page_cache().in_use(), 8u);

  suvm.ResizeEpcPp(nullptr, 4);  // cannot evict: everything is pinned
  EXPECT_EQ(suvm.page_cache().target_pages(), 4u);
  EXPECT_EQ(suvm.page_cache().in_use(), 8u);

  // Over-target: no new page may come in, even though slots exist.
  int extra = -1;
  const uint64_t spare = ValueOrThrow(suvm.Malloc(sim::kPageSize));
  EXPECT_EQ(suvm.PinPage(nullptr, spare / sim::kPageSize, &extra).code(),
            StatusCode::kResourceExhausted);

  for (uint64_t p = 0; p < 8; ++p) {
    suvm.UnpinPage(base + p, slots[static_cast<size_t>(p)], /*dirty=*/false);
  }
  suvm.ResizeEpcPp(nullptr, 4);  // pins released: the shrink completes
  EXPECT_LE(suvm.page_cache().in_use(), 4u);
  // With room under the target again, pinning works.
  int s = -1;
  ASSERT_OK(suvm.PinPage(nullptr, spare / sim::kPageSize, &s));
  EXPECT_GE(s, 0);
  suvm.UnpinPage(spare / sim::kPageSize, s, /*dirty=*/false);
}

}  // namespace
}  // namespace eleos::suvm
