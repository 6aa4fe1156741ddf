// Copyright (c) Eleos reproduction authors. MIT license.
//
// Regression tests for three SUVM paging correctness bugs:
//  1. Suvm::Free dropped sub-page/edge allocations without scrubbing, so a
//     later owner of the same backing-store bytes read the previous owner's
//     stale plaintext instead of zeros.
//  2. Miss paths (PinPage fast path, ReadDirect) default-inserted
//     PageMeta entries via operator[], growing the page table without bound
//     on miss-heavy probing.
//  3. Suvm::Memcpy staged forward in 512-byte chunks, corrupting overlapping
//     ranges (the memcpy-vs-memmove bug).
// Plus the BalloonPass slack-underflow clamp.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/suvm/suvm.h"
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

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(seed);
  rng.FillBytes(v.data(), v.size());
  return v;
}

// --- Bug 1: Free must not leak a freed allocation's plaintext ---

TEST(SuvmFree, ReallocatedSubPageBlockReadsAsZeros) {
  World w(TinyCfg(16));
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(512));
  const auto pattern = Pattern(512, 7);
  ASSERT_OK(w.suvm->Write(nullptr, a, pattern.data(), pattern.size()));
  w.suvm->Free(a);

  // The buddy allocator hands the same bytes to the next allocation.
  const uint64_t b = ValueOrThrow(w.suvm->Malloc(8192));
  ASSERT_EQ(b, a) << "buddy allocator no longer reuses the freed block; "
                     "the test premise is broken";
  std::vector<uint8_t> back(8192, 0xaa);
  ASSERT_OK(w.suvm->Read(nullptr, b, back.data(), back.size()));
  EXPECT_EQ(back, std::vector<uint8_t>(8192, 0))
      << "freed allocation's plaintext leaked into the new owner";
}

TEST(SuvmFree, ScrubPreservesNeighborSharingThePage) {
  World w(TinyCfg(16));
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(512));
  const uint64_t b = ValueOrThrow(w.suvm->Malloc(512));
  ASSERT_EQ(a / sim::kPageSize, b / sim::kPageSize)
      << "allocations no longer share a page; the test premise is broken";
  const auto pa = Pattern(512, 11);
  const auto pb = Pattern(512, 13);
  ASSERT_OK(w.suvm->Write(nullptr, a, pa.data(), pa.size()));
  ASSERT_OK(w.suvm->Write(nullptr, b, pb.data(), pb.size()));

  w.suvm->Free(a);

  // The neighbor's bytes survive the scrub untouched...
  std::vector<uint8_t> back(512);
  ASSERT_OK(w.suvm->Read(nullptr, b, back.data(), back.size()));
  EXPECT_EQ(back, pb);
  // ...and the freed half reads as zeros for its next owner.
  const uint64_t c = ValueOrThrow(w.suvm->Malloc(512));
  ASSERT_EQ(c, a);
  ASSERT_OK(w.suvm->Read(nullptr, c, back.data(), back.size()));
  EXPECT_EQ(back, std::vector<uint8_t>(512, 0));
}

TEST(SuvmFree, ScrubReachesSealedNonResidentEdgePage) {
  World w(TinyCfg(4));  // tiny EPC++ so the shared page gets evicted
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(512));
  const uint64_t b = ValueOrThrow(w.suvm->Malloc(512));
  ASSERT_EQ(a / sim::kPageSize, b / sim::kPageSize);
  const auto pa = Pattern(512, 17);
  const auto pb = Pattern(512, 19);
  ASSERT_OK(w.suvm->Write(nullptr, a, pa.data(), pa.size()));
  ASSERT_OK(w.suvm->Write(nullptr, b, pb.data(), pb.size()));

  // Push the shared page out to the sealed backing store.
  const size_t churn_bytes = 8 * sim::kPageSize;
  const uint64_t churn = ValueOrThrow(w.suvm->Malloc(churn_bytes));
  ASSERT_OK(w.suvm->Memset(nullptr, churn, 0x5a, churn_bytes));
  ASSERT_GT(w.suvm->stats().evictions.load(), 0u);

  w.suvm->Free(a);  // must page the sealed edge page back in to scrub it

  std::vector<uint8_t> back(512);
  ASSERT_OK(w.suvm->Read(nullptr, b, back.data(), back.size()));
  EXPECT_EQ(back, pb);
  const uint64_t c = ValueOrThrow(w.suvm->Malloc(512));
  ASSERT_EQ(c, a);
  ASSERT_OK(w.suvm->Read(nullptr, c, back.data(), back.size()));
  EXPECT_EQ(back, std::vector<uint8_t>(512, 0));
}

TEST(SuvmFree, FullyOwnedPagesStillDropWithoutWriteback) {
  World w(TinyCfg(16));
  const size_t n = 4 * sim::kPageSize;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(n));
  ASSERT_OK(w.suvm->Memset(nullptr, a, 0xcd, n));
  const uint64_t wb_before = w.suvm->stats().writebacks.load();
  w.suvm->Free(a);
  EXPECT_EQ(w.suvm->stats().writebacks.load(), wb_before)
      << "dropping a fully-owned page must not pay for a seal";
  EXPECT_EQ(w.suvm->PageTableEntries(), 0u);

  const uint64_t b = ValueOrThrow(w.suvm->Malloc(n));
  ASSERT_EQ(b, a);
  std::vector<uint8_t> back(n, 0xff);
  ASSERT_OK(w.suvm->Read(nullptr, b, back.data(), back.size()));
  EXPECT_EQ(back, std::vector<uint8_t>(n, 0));
}

TEST(SuvmFree, PinnedFullyOwnedPageStillThrows) {
  World w(TinyCfg(16));
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  int slot = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, a / sim::kPageSize, &slot));
  EXPECT_THROW(w.suvm->Free(a), std::logic_error);
  w.suvm->UnpinPage(a / sim::kPageSize, slot, /*dirty=*/false);
}

// --- Bug 2: miss paths must not materialize page-table entries ---

TEST(SuvmPageTable, DirectReadMissesDoNotGrowPageTable) {
  SuvmConfig cfg = TinyCfg(8);
  cfg.direct_mode = true;
  World w(cfg);
  const size_t n = 100 * sim::kPageSize;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(n));

  std::vector<uint8_t> buf(256, 0xee);
  for (size_t p = 0; p < 100; ++p) {
    ASSERT_TRUE(
        w.suvm->ReadDirect(nullptr, addr + p * sim::kPageSize, buf.data(),
                           buf.size())
            .ok());
    EXPECT_EQ(buf, std::vector<uint8_t>(256, 0));
    buf.assign(256, 0xee);
  }
  EXPECT_EQ(w.suvm->PageTableEntries(), 0u)
      << "read-only probes materialized page-table entries";
}

TEST(SuvmPageTable, ExhaustedPinDoesNotGrowPageTable) {
  World w(TinyCfg(2));
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(4 * sim::kPageSize));
  const uint64_t base = addr / sim::kPageSize;
  int s0 = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, base, &s0));
  int s1 = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, base + 1, &s1));
  ASSERT_EQ(w.suvm->PageTableEntries(), 2u);

  int s2 = -1;
  const Status st = w.suvm->PinPage(nullptr, base + 2, &s2);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(w.suvm->PageTableEntries(), 2u)
      << "a failed pin left a husk entry in the page table";

  w.suvm->UnpinPage(base, s0, false);
  w.suvm->UnpinPage(base + 1, s1, false);
}

// --- Bug 3: Memcpy over overlapping ranges ---

TEST(SuvmMemcpy, ForwardOverlapMatchesMemmove) {
  World w(TinyCfg(16));
  const size_t n = 3 * sim::kPageSize;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(n));
  auto mirror = Pattern(n, 23);
  ASSERT_OK(w.suvm->Write(nullptr, addr, mirror.data(), mirror.size()));

  // dst inside (src, src+len): forward chunked staging re-reads overwritten
  // bytes. 5000 > 512 forces multiple chunks; 700 < 512*? ensures overlap
  // within neighboring chunks; the range crosses a page boundary.
  const size_t len = 5000;
  const size_t src_off = 100;
  const size_t dst_off = 800;
  ASSERT_OK(w.suvm->Memcpy(nullptr, addr + dst_off, addr + src_off, len));
  std::memmove(mirror.data() + dst_off, mirror.data() + src_off, len);

  std::vector<uint8_t> back(n);
  ASSERT_OK(w.suvm->Read(nullptr, addr, back.data(), back.size()));
  EXPECT_EQ(back, mirror);
}

TEST(SuvmMemcpy, BackwardOverlapMatchesMemmove) {
  World w(TinyCfg(16));
  const size_t n = 3 * sim::kPageSize;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(n));
  auto mirror = Pattern(n, 29);
  ASSERT_OK(w.suvm->Write(nullptr, addr, mirror.data(), mirror.size()));

  const size_t len = 5000;
  ASSERT_OK(w.suvm->Memcpy(nullptr, addr + 100, addr + 800, len));
  std::memmove(mirror.data() + 100, mirror.data() + 800, len);

  std::vector<uint8_t> back(n);
  ASSERT_OK(w.suvm->Read(nullptr, addr, back.data(), back.size()));
  EXPECT_EQ(back, mirror);
}

TEST(SuvmMemcpy, DisjointCopyUnchanged) {
  World w(TinyCfg(16));
  const size_t n = 4 * sim::kPageSize;
  const uint64_t addr = ValueOrThrow(w.suvm->Malloc(n));
  auto mirror = Pattern(n, 31);
  ASSERT_OK(w.suvm->Write(nullptr, addr, mirror.data(), mirror.size()));

  const size_t len = 2 * sim::kPageSize - 77;
  ASSERT_OK(w.suvm->Memcpy(nullptr, addr + 2 * sim::kPageSize, addr, len));
  std::memmove(mirror.data() + 2 * sim::kPageSize, mirror.data(), len);

  std::vector<uint8_t> back(n);
  ASSERT_OK(w.suvm->Read(nullptr, addr, back.data(), back.size()));
  EXPECT_EQ(back, mirror);
}

// --- BalloonPass slack-underflow clamp ---

TEST(SuvmBalloon, ReservedBelowCacheSizeDoesNotCollapseTarget) {
  World w(TinyCfg(64), /*epc_frames=*/1024);
  // Model an app releasing enclave regions until the enclave's reservation
  // bookkeeping dips below the EPC++ pool size. Pre-fix the unsigned
  // subtraction wrapped, computed an astronomical slack, and ballooned the
  // cache down to a single page.
  const size_t reserved = w.enclave->reserved_pages();
  ASSERT_GT(reserved, 64u);
  const size_t release = reserved - 32;  // leaves 32 < max_pages(64)
  w.enclave->Free(w.enclave->Alloc(0), release * sim::kPageSize);
  ASSERT_LT(w.enclave->reserved_pages(), 64u);

  const size_t target = w.suvm->BalloonPass(nullptr);
  EXPECT_EQ(target, 64u)
      << "slack underflow ballooned EPC++ down to nothing";
}

}  // namespace
}  // namespace eleos::suvm
