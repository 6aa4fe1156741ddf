// Copyright (c) Eleos reproduction authors. MIT license.
//
// AllocHugeBuffer, the host memory under the EPC frame pool and SUVM's
// backing arena: 2 MiB alignment, the usable size (exactly the request under
// AddressSanitizer), disjoint blocks and writable bytes, whether or not the
// kernel honours MADV_HUGEPAGE. Under AddressSanitizer a byte past either
// pool is still a heap-buffer-overflow, as it was when both came from new[].

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/common/huge_buffer.h"
#include "src/sim/epc.h"
#include "src/suvm/backing_store.h"

#if defined(__SANITIZE_ADDRESS__)
#define ELEOS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ELEOS_ASAN 1
#endif
#endif

namespace eleos {
namespace {

constexpr size_t kSizes[] = {1, 4096, 5 * 4096 + 7, kHugePageSize,
                             3 * kHugePageSize + 100};

TEST(HugeBuffer, AlignedExactSizedAndWritable) {
  for (const size_t bytes : kSizes) {
    HugeBuffer buf = AllocHugeBuffer(bytes);
    ASSERT_NE(buf, nullptr) << bytes;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.get()) % kHugePageSize, 0u)
        << bytes;
#ifdef ELEOS_ASAN
    EXPECT_EQ(malloc_usable_size(buf.get()), bytes);
#else
    EXPECT_GE(malloc_usable_size(buf.get()), bytes);
#endif
    uint8_t* const end = buf.get() + bytes;
    std::memset(buf.get(), 0xa5, bytes);
    EXPECT_EQ(std::find_if(buf.get(), end, [](uint8_t v) { return v != 0xa5; }),
              end)
        << bytes;
  }
}

TEST(HugeBuffer, BlocksDoNotOverlap) {
  const size_t bytes = kHugePageSize + 4096;
  HugeBuffer a = AllocHugeBuffer(bytes);
  HugeBuffer b = AllocHugeBuffer(bytes);
  const uintptr_t pa = reinterpret_cast<uintptr_t>(a.get());
  const uintptr_t pb = reinterpret_cast<uintptr_t>(b.get());
  EXPECT_TRUE(pa + bytes <= pb || pb + bytes <= pa);
  std::memset(a.get(), 1, bytes);
  std::memset(b.get(), 2, bytes);
  EXPECT_EQ(a[bytes - 1], 1);
  EXPECT_EQ(b[0], 2);
}

TEST(HugeBuffer, ZeroBytesIsAnAlignedBlock) {
  HugeBuffer buf = AllocHugeBuffer(0);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.get()) % kHugePageSize, 0u);
}

// The pools' users index them with untrusted-derived offsets, so the ASan
// stage must still catch a write one byte past either pool.
TEST(HugeBufferAsan, WritePastLastEpcFrameIsReported) {
#ifndef ELEOS_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  sim::Epc epc(64);
  volatile uint8_t* past = epc.FrameData(
      static_cast<sim::FrameId>(epc.total_frames()));
  EXPECT_DEATH(*past = 1, "heap-buffer-overflow");
#endif
}

TEST(HugeBufferAsan, WritePastBackingArenaIsReported) {
#ifndef ELEOS_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  suvm::BackingStore store({.capacity_bytes = 1 << 20, .min_block = 16});
  volatile uint8_t* past = store.Raw(store.capacity());
  EXPECT_DEATH(*past = 1, "heap-buffer-overflow");
#endif
}

}  // namespace
}  // namespace eleos
