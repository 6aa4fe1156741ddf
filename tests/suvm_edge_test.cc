// Copyright (c) Eleos reproduction authors. MIT license.
//
// SUVM edge cases: boundary offsets, allocator reuse, multiple instances,
// balloon churn, watermark behaviour, and failure injection; and the range
// checks of every apps::MemRegion backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/suvm/spointer.h"
#include "src/suvm/suvm.h"
#include "src/suvm/suvm_c.h"
#include "tests/test_status.h"

namespace eleos::suvm {
namespace {

struct World {
  explicit World(SuvmConfig cfg = Tiny()) {
    machine = std::make_unique<sim::Machine>();
    enclave = std::make_unique<sim::Enclave>(*machine);
    suvm = std::make_unique<Suvm>(*enclave, cfg);
  }
  static SuvmConfig Tiny() {
    SuvmConfig cfg;
    cfg.epc_pp_pages = 8;
    cfg.backing_bytes = 8 << 20;
    cfg.swapper_low_watermark = 0;
    return cfg;
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<Suvm> suvm;
};

TEST(SuvmEdge, ZeroLengthOpsAreNoOps) {
  World w;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(4096));
  uint8_t buf[1] = {9};
  ASSERT_OK(w.suvm->Read(nullptr, a, buf, 0));
  ASSERT_OK(w.suvm->Write(nullptr, a, buf, 0));
  ASSERT_OK(w.suvm->Memset(nullptr, a, 1, 0));
  ASSERT_OK(w.suvm->Memcpy(nullptr, a, a, 0));
  EXPECT_EQ(ValueOrThrow(w.suvm->Memcmp(nullptr, a, buf, 0)), 0);
  EXPECT_EQ(buf[0], 9);
}

TEST(SuvmEdge, ExactPageBoundaryAccesses) {
  World w;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(4 * sim::kPageSize));
  // Write the last byte of one page and the first of the next in one call.
  const uint8_t pair[2] = {0xAB, 0xCD};
  ASSERT_OK(w.suvm->Write(nullptr, a + sim::kPageSize - 1, pair, 2));
  uint8_t back[2];
  ASSERT_OK(w.suvm->Read(nullptr, a + sim::kPageSize - 1, back, 2));
  EXPECT_EQ(back[0], 0xAB);
  EXPECT_EQ(back[1], 0xCD);
  // Whole-region op landing exactly on page boundaries.
  std::vector<uint8_t> all(4 * sim::kPageSize, 0x11);
  ASSERT_OK(w.suvm->Write(nullptr, a, all.data(), all.size()));
  std::vector<uint8_t> out(all.size());
  ASSERT_OK(w.suvm->Read(nullptr, a, out.data(), out.size()));
  EXPECT_EQ(all, out);
}

TEST(SuvmEdge, MallocFreeReuseKeepsIsolation) {
  World w;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  ASSERT_OK(w.suvm->Memset(nullptr, a, 0xEE, sim::kPageSize));
  w.suvm->Free(a);
  const uint64_t b = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  EXPECT_EQ(b, a);  // buddy reuses the block
  // Fresh allocation must not resurrect sealed old contents after paging.
  ASSERT_OK(w.suvm->Memset(nullptr, b, 0x22, 16));
  w.suvm->ResizeEpcPp(nullptr, 0);
  w.suvm->ResizeEpcPp(nullptr, 8);
  uint8_t out[16];
  ASSERT_OK(w.suvm->Read(nullptr, b + 16, out, sizeof(out)));
  // Bytes 16..31 were never written in this allocation's lifetime: the page
  // was dropped on Free, so they read back as zero (not stale 0xEE).
  for (uint8_t v : out) {
    EXPECT_EQ(v, 0x00);
  }
}

TEST(SuvmEdge, MallocOutOfBackingIsResourceExhausted) {
  SuvmConfig cfg = World::Tiny();
  cfg.backing_bytes = 1 << 20;
  World w(cfg);
  EXPECT_OK(w.suvm->Malloc(512 << 10));
  EXPECT_EQ(w.suvm->Malloc(1 << 20).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SuvmEdge, TwoInstancesInOneEnclaveAreIndependent) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig cfg = World::Tiny();
  Suvm s1(enclave, cfg);
  SuvmConfig cfg2 = cfg;
  cfg2.key_seed = 999;
  Suvm s2(enclave, cfg2);
  const uint64_t a1 = ValueOrThrow(s1.Malloc(4096));
  const uint64_t a2 = ValueOrThrow(s2.Malloc(4096));
  ASSERT_OK(s1.Memset(nullptr, a1, 1, 64));
  ASSERT_OK(s2.Memset(nullptr, a2, 2, 64));
  uint8_t v1, v2;
  ASSERT_OK(s1.Read(nullptr, a1, &v1, 1));
  ASSERT_OK(s2.Read(nullptr, a2, &v2, 1));
  EXPECT_EQ(v1, 1);
  EXPECT_EQ(v2, 2);
}

TEST(SuvmEdge, BalloonChurnUnderLoad) {
  World w;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(32 * sim::kPageSize));
  Xoshiro256 rng(8);
  for (int round = 0; round < 50; ++round) {
    const size_t target = 1 + rng.NextBelow(8);
    w.suvm->ResizeEpcPp(nullptr, target);
    for (int i = 0; i < 20; ++i) {
      const uint64_t off = rng.NextBelow(32 * sim::kPageSize - 8);
      uint64_t v = off;
      ASSERT_OK(w.suvm->Write(nullptr, a + off, &v, sizeof(v)));
      uint64_t got;
      ASSERT_OK(w.suvm->Read(nullptr, a + off, &got, sizeof(got)));
      ASSERT_EQ(got, off);
    }
    ASSERT_LE(w.suvm->page_cache().in_use(), target)
        << "resize must bound the cache at round " << round;
  }
}

TEST(SuvmEdge, SwapperHonorsWatermarkAcrossLoads) {
  SuvmConfig cfg = World::Tiny();
  cfg.swapper_low_watermark = 3;
  World w(cfg);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(32 * sim::kPageSize));
  uint8_t b = 1;
  for (uint64_t p = 0; p < 32; ++p) {
    ASSERT_OK(w.suvm->Write(nullptr, a + p * sim::kPageSize, &b, 1));
    w.suvm->SwapperPass(nullptr);
    ASSERT_GE(w.suvm->page_cache().free_slots(), 3u);
  }
}

TEST(SuvmEdge, UnpinUnderflowThrows) {
  World w;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(4096));
  int slot = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, a / sim::kPageSize, &slot));
  w.suvm->UnpinPage(a / sim::kPageSize, slot, false);
  EXPECT_THROW(w.suvm->UnpinPage(a / sim::kPageSize, slot, false),
               std::logic_error);
}

TEST(SuvmEdge, FreeWhilePinnedThrows) {
  World w;
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(sim::kPageSize));
  int slot = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, a / sim::kPageSize, &slot));
  EXPECT_THROW(w.suvm->Free(a), std::logic_error);
  // The C interface reports the same violation without unwinding into C.
  EXPECT_EQ(suvm_free(suvm_ctx_from(w.suvm.get()), a),
            SUVM_ERR_FAILED_PRECONDITION);
  w.suvm->UnpinPage(a / sim::kPageSize, slot, false);
  EXPECT_NO_THROW(w.suvm->Free(a));
}

TEST(SuvmEdge, AllPagesPinnedFaultIsResourceExhausted) {
  SuvmConfig cfg = World::Tiny();
  cfg.epc_pp_pages = 2;
  World w(cfg);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(8 * sim::kPageSize));
  int s0 = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, a / sim::kPageSize, &s0));
  int s1 = -1;
  ASSERT_OK(w.suvm->PinPage(nullptr, a / sim::kPageSize + 1, &s1));
  int s2 = -1;
  EXPECT_EQ(w.suvm->PinPage(nullptr, a / sim::kPageSize + 2, &s2).code(),
            StatusCode::kResourceExhausted);
  w.suvm->UnpinPage(a / sim::kPageSize, s0, false);
  EXPECT_OK(w.suvm->PinPage(nullptr, a / sim::kPageSize + 2, &s2));
  w.suvm->UnpinPage(a / sim::kPageSize + 1, s1, false);
}

TEST(SuvmEdge, SubpageSizeMustDividePage) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig cfg = World::Tiny();
  cfg.subpage_size = 1000;  // does not divide 4096
  EXPECT_THROW(Suvm s(enclave, cfg), std::invalid_argument);
}

TEST(SuvmEdge, SpointerOnFreshAllocationReadsZero) {
  World w;
  auto p = SuvmAlloc<uint64_t>(*w.suvm, 512);
  EXPECT_EQ(p.Get(), 0u);
  EXPECT_EQ(p.GetAt(511), 0u);
}

TEST(SuvmEdge, DirectModeSubpageGranularityConfigurable) {
  SuvmConfig cfg = World::Tiny();
  cfg.direct_mode = true;
  cfg.subpage_size = 512;  // 8 sub-pages per page
  World w(cfg);
  EXPECT_EQ(w.suvm->subpages_per_page(), 8u);
  const uint64_t a = ValueOrThrow(w.suvm->Malloc(2 * sim::kPageSize));
  uint8_t data[600];
  std::memset(data, 0x3c, sizeof(data));
  ASSERT_OK(w.suvm->Write(nullptr, a + 100, data, sizeof(data)));
  w.suvm->ResizeEpcPp(nullptr, 0);
  uint8_t out[600];
  ASSERT_OK(w.suvm->ReadDirect(nullptr, a + 100, out, sizeof(out)));
  EXPECT_EQ(0, std::memcmp(data, out, sizeof(out)));
}

// --- Addresses past the backing store ---
//
// Every entry point rejects a range that does not fit in backing_bytes
// before it changes anything. An accepted one used to seal the page past the
// arena's end when it was evicted (or at once, on the direct path).

SuvmConfig OneMiB() {
  SuvmConfig cfg = World::Tiny();
  cfg.backing_bytes = 1 << 20;
  return cfg;
}

TEST(SuvmPastEnd, WholePageWriteThenEvictionIsRejected) {
  World w(OneMiB());
  const std::vector<uint8_t> page(sim::kPageSize, 0x5a);
  EXPECT_EQ(w.suvm->Write(nullptr, 3 << 20, page.data(), page.size()).code(),
            StatusCode::kInvalidArgument);
  w.suvm->ResizeEpcPp(nullptr, 0);  // evicts every resident page
  EXPECT_EQ(w.suvm->stats().major_faults.load(), 0u);
  EXPECT_EQ(w.suvm->stats().writebacks.load(), 0u);
  EXPECT_EQ(w.suvm->PageTableEntries(), 0u);
}

TEST(SuvmPastEnd, DirectAccessPastEndIsRejected) {
  SuvmConfig cfg = OneMiB();
  cfg.direct_mode = true;
  World w(cfg);
  uint8_t buf[64] = {};
  EXPECT_EQ(w.suvm->WriteDirect(nullptr, 3 << 20, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.suvm->ReadDirect(nullptr, 3 << 20, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.suvm->stats().direct_writes.load(), 0u);
  EXPECT_EQ(w.suvm->stats().direct_reads.load(), 0u);
  EXPECT_EQ(w.suvm->PageTableEntries(), 0u);
}

TEST(SuvmPastEnd, RangeStraddlingTheEndChangesNothing) {
  World w(OneMiB());
  const uint64_t end = 1 << 20;
  const std::vector<uint8_t> tail(64, 0x11);
  ASSERT_OK(w.suvm->Write(nullptr, end - 64, tail.data(), tail.size()));
  const uint64_t faults = w.suvm->stats().major_faults.load();

  std::vector<uint8_t> buf(128, 0x22);
  const auto invalid = [](const Status& s) {
    return s.code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(invalid(w.suvm->Write(nullptr, end - 64, buf.data(), 128)));
  EXPECT_TRUE(invalid(w.suvm->Read(nullptr, end - 64, buf.data(), 128)));
  EXPECT_TRUE(invalid(w.suvm->Memset(nullptr, end - 64, 0, 128)));
  EXPECT_TRUE(invalid(w.suvm->Memcpy(nullptr, end - 64, 0, 128)));
  EXPECT_TRUE(invalid(w.suvm->Memcpy(nullptr, 0, end - 64, 128)));
  EXPECT_TRUE(
      invalid(w.suvm->Memcmp(nullptr, end - 64, buf.data(), 128).status()));
  EXPECT_TRUE(invalid(w.suvm->Read(nullptr, UINT64_MAX - 8, buf.data(), 64)));
  int slot = -1;
  EXPECT_TRUE(invalid(w.suvm->PinPage(nullptr, end / sim::kPageSize, &slot)));
  EXPECT_EQ(slot, -1);
  EXPECT_EQ(buf, std::vector<uint8_t>(128, 0x22));

  EXPECT_EQ(w.suvm->stats().major_faults.load(), faults);
  std::vector<uint8_t> back(64);
  ASSERT_OK(w.suvm->Read(nullptr, end - 64, back.data(), back.size()));
  EXPECT_EQ(back, tail);
}

TEST(SuvmPastEnd, CApiReturnsInvalidArgument) {
  World w(OneMiB());
  suvm_ctx* ctx = suvm_ctx_from(w.suvm.get());
  uint8_t buf[64] = {};
  EXPECT_EQ(suvm_set_bytes(ctx, 3 << 20, buf, sizeof(buf)),
            SUVM_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(suvm_get_bytes(ctx, 3 << 20, buf, sizeof(buf)),
            SUVM_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(suvm_memset(ctx, 3 << 20, 1, sizeof(buf)),
            SUVM_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(suvm_memcpy(ctx, 3 << 20, 0, sizeof(buf)),
            SUVM_ERR_INVALID_ARGUMENT);
  int result = 7;
  EXPECT_EQ(suvm_memcmp(ctx, 3 << 20, buf, sizeof(buf), &result),
            SUVM_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(result, 7);
  EXPECT_EQ(w.suvm->PageTableEntries(), 0u);
}

// --- apps::MemRegion bounds ---
//
// A region is a window onto a larger space: the machine's untrusted range,
// the enclave's pages, or one Suvm's backing store. A range past size() would
// reach a neighbour, so every backend rejects it before touching anything:
// TryRead/TryWrite return kInvalidArgument and Read/Write throw. Each case
// works on the middle one of three adjacent 8 KiB regions and checks that
// all three, and the read buffer, are unchanged.

enum class Backend { kUntrusted, kEnclave, kSuvm };
enum class Api { kThrowing, kStatus };

struct BadRange {
  const char* name;
  uint64_t off;
  size_t n;
};

constexpr size_t kRegionBytes = 8192;
constexpr BadRange kBadRanges[] = {
    {"PastTheEnd", kRegionBytes + 64, 64},
    {"StraddlingTheEnd", kRegionBytes - 32, 64},
    // off + n wraps to 48: a check of `off + n <= size` would pass it.
    {"OffPlusNOverflows", UINT64_MAX - 15, 64},
};

struct RegionWorld {
  explicit RegionWorld(Backend backend) {
    if (backend == Backend::kSuvm) {
      suvm = std::make_unique<Suvm>(enclave, World::Tiny());
    }
    for (auto& region : regions) {
      switch (backend) {
        case Backend::kUntrusted:
          region = std::make_unique<apps::UntrustedRegion>(machine,
                                                           kRegionBytes);
          break;
        case Backend::kEnclave:
          region = std::make_unique<apps::EnclaveRegion>(enclave, kRegionBytes);
          break;
        case Backend::kSuvm:
          region = std::make_unique<apps::SuvmRegion>(*suvm, kRegionBytes);
          break;
      }
    }
  }
  sim::Machine machine;
  sim::Enclave enclave{machine};
  std::unique_ptr<Suvm> suvm;
  std::unique_ptr<apps::MemRegion> regions[3];
};

class RegionBounds
    : public ::testing::TestWithParam<std::tuple<Backend, BadRange, Api>> {};

TEST_P(RegionBounds, RejectsTheRangeAndChangesNothing) {
  const auto [backend, range, api] = GetParam();
  RegionWorld w(backend);
  for (int r = 0; r < 3; ++r) {
    const std::vector<uint8_t> fill(kRegionBytes, 0xa0 + r);
    w.regions[r]->Write(nullptr, 0, fill.data(), fill.size());
  }
  apps::MemRegion& mid = *w.regions[1];
  const std::vector<uint8_t> src(range.n, 0xff);
  std::vector<uint8_t> dst(range.n, 0x22);
  if (api == Api::kStatus) {
    EXPECT_EQ(mid.TryWrite(nullptr, range.off, src.data(), range.n).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(mid.TryRead(nullptr, range.off, dst.data(), range.n).code(),
              StatusCode::kInvalidArgument);
  } else if (backend == Backend::kSuvm) {
    // SuvmRegion throws its Status (ThrowIfError).
    EXPECT_THROW(mid.Write(nullptr, range.off, src.data(), range.n),
                 std::runtime_error);
    EXPECT_THROW(mid.Read(nullptr, range.off, dst.data(), range.n),
                 std::runtime_error);
  } else {
    EXPECT_THROW(mid.Write(nullptr, range.off, src.data(), range.n),
                 std::out_of_range);
    EXPECT_THROW(mid.Read(nullptr, range.off, dst.data(), range.n),
                 std::out_of_range);
  }
  EXPECT_EQ(dst, std::vector<uint8_t>(range.n, 0x22));
  for (int r = 0; r < 3; ++r) {
    std::vector<uint8_t> back(kRegionBytes);
    w.regions[r]->Read(nullptr, 0, back.data(), back.size());
    EXPECT_EQ(back, std::vector<uint8_t>(kRegionBytes, 0xa0 + r))
        << "region " << r;
  }
}

std::string RegionCaseName(
    const ::testing::TestParamInfo<RegionBounds::ParamType>& param) {
  static const char* const kBackends[] = {"Untrusted", "Enclave", "Suvm"};
  const auto [backend, range, api] = param.param;
  return std::string(kBackends[static_cast<int>(backend)]) + "_" +
         range.name + (api == Api::kStatus ? "_Status" : "_Throwing");
}

INSTANTIATE_TEST_SUITE_P(
    EveryBackend, RegionBounds,
    ::testing::Combine(::testing::Values(Backend::kUntrusted,
                                         Backend::kEnclave, Backend::kSuvm),
                       ::testing::ValuesIn(kBadRanges),
                       ::testing::Values(Api::kThrowing, Api::kStatus)),
    RegionCaseName);

}  // namespace
}  // namespace eleos::suvm
