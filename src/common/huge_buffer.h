// Copyright (c) Eleos reproduction authors. MIT license.
//
// Host memory for the simulator's large page pools: the EPC frame pool
// (sim::Epc) and SUVM's backing arena (suvm::BackingStore). Both move real
// 4 KiB pages at random, so on 4 KiB host pages their first touches cost one
// host page fault per page and every later access a 4 KiB TLB walk. A
// HugeBuffer asks the kernel for 2 MiB transparent huge pages instead. Only
// host time changes: no host address of these buffers reaches the cache or
// TLB models. SUVM's page table, one entry per backing-store page of which
// a run may touch few, is a ZeroedArray instead.

#ifndef ELEOS_SRC_COMMON_HUGE_BUFFER_H_
#define ELEOS_SRC_COMMON_HUGE_BUFFER_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

namespace eleos {

inline constexpr size_t kHugePageSize = 2u << 20;

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
using HugeBuffer = std::unique_ptr<uint8_t[], FreeDeleter>;
template <typename T>
using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;

// Returns `bytes` of uninitialized memory aligned to 2 MiB and advised
// MADV_HUGEPAGE. The advice is a hint: where transparent huge pages are off
// the block is ordinary 4 KiB pages. posix_memalign, not mmap, so ASan and
// TSan still see a heap block with a redzone past its last byte. Throws
// std::bad_alloc when the allocation fails.
inline HugeBuffer AllocHugeBuffer(size_t bytes) {
  void* p = nullptr;
  if (posix_memalign(&p, kHugePageSize, bytes == 0 ? 1 : bytes) != 0) {
    throw std::bad_alloc();
  }
#ifdef MADV_HUGEPAGE
  // Whole 4 KiB pages only: the tail of the last one may belong to another
  // block. A failed hint changes nothing, so the result is ignored.
  (void)madvise(p, bytes & ~size_t{4095}, MADV_HUGEPAGE);
#endif
  return HugeBuffer(static_cast<uint8_t*>(p));
}

// Returns `n` all-zero Ts (valid as all-zero bytes) or throws
// std::bad_alloc. calloc serves a large block from fresh anonymous pages
// without writing them, so an entry never written is never resident; ASan
// still sees a redzone past the last entry.
template <typename T>
ZeroedArray<T> AllocZeroedArray(size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  void* p = std::calloc(n == 0 ? 1 : n, sizeof(T));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return ZeroedArray<T>(static_cast<T*>(p));
}

}  // namespace eleos

#endif  // ELEOS_SRC_COMMON_HUGE_BUFFER_H_
