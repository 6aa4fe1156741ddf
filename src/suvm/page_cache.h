// Copyright (c) Eleos reproduction authors. MIT license.
//
// EPC++: SUVM's page cache, a pre-allocated pool of enclave (EPC-backed)
// pages with a free list (paper §4.1).
//
// Resizing follows the paper exactly: when EPC++ is downsized under PRM
// pressure, slots are removed from the free list and simply never touched
// again — the SGX driver eventually evicts those untouched enclave pages,
// while the in-use EPC++ pages stay hot and resident.

#ifndef ELEOS_SRC_SUVM_PAGE_CACHE_H_
#define ELEOS_SRC_SUVM_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/common/spinlock.h"
#include "src/sim/enclave.h"

namespace eleos::suvm {

class PageCache {
 public:
  PageCache(sim::Enclave& enclave, size_t max_pages)
      : enclave_(&enclave),
        max_pages_(max_pages),
        target_pages_(max_pages),
        base_vaddr_(enclave.Alloc(max_pages * sim::kPageSize)),
        is_free_(max_pages, true) {
    free_list_.reserve(max_pages);
    for (size_t i = max_pages; i > 0; --i) {
      free_list_.push_back(static_cast<int>(i - 1));
    }
  }

  ~PageCache() { enclave_->Free(base_vaddr_, max_pages_ * sim::kPageSize); }

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Claims a free slot, or -1 when the pool is empty / the balloon target is
  // reached (the caller must evict first).
  int AllocSlot() {
    std::lock_guard guard(lock_);
    if (free_list_.empty() || in_use() >= target_pages()) {
      return -1;
    }
    const int slot = free_list_.back();
    free_list_.pop_back();
    is_free_[static_cast<size_t>(slot)] = false;
    in_use_.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

  // Double-free here is always a caller bug (two PageMeta entries claiming
  // the same slot), and a silently duplicated free-list entry later hands the
  // same slot to two pages — data corruption far from the root cause. Fail
  // loudly at the bug instead.
  void FreeSlot(int slot) {
    std::lock_guard guard(lock_);
    if (slot < 0 || static_cast<size_t>(slot) >= max_pages_) {
      throw std::logic_error("PageCache::FreeSlot: slot out of range");
    }
    if (is_free_[static_cast<size_t>(slot)]) {
      throw std::logic_error("PageCache::FreeSlot: double free of slot");
    }
    is_free_[static_cast<size_t>(slot)] = true;
    free_list_.push_back(slot);
    in_use_.fetch_sub(1, std::memory_order_relaxed);
  }

  uint64_t SlotVaddr(int slot) const {
    return base_vaddr_ + static_cast<uint64_t>(slot) * sim::kPageSize;
  }

  // Balloon target: EPC++ may use at most this many pages. Shrinking below
  // the current occupancy requires the caller (Suvm) to evict first.
  void set_target_pages(size_t target) {
    std::lock_guard guard(lock_);
    target_pages_.store(target > max_pages_ ? max_pages_ : target,
                        std::memory_order_relaxed);
  }
  size_t target_pages() const {
    return target_pages_.load(std::memory_order_relaxed);
  }

  size_t max_pages() const { return max_pages_; }
  size_t in_use() const { return in_use_.load(std::memory_order_relaxed); }
  size_t free_slots() const {
    std::lock_guard guard(lock_);
    return target_pages() > in_use() ? target_pages() - in_use() : 0;
  }

  // The atomics behind in_use() and target_pages(), for the registry.
  const std::atomic<size_t>& in_use_cell() const { return in_use_; }
  const std::atomic<size_t>& target_pages_cell() const { return target_pages_; }

 private:
  sim::Enclave* enclave_;
  size_t max_pages_;
  std::atomic<size_t> target_pages_;  // written under lock_, read lock-free
  uint64_t base_vaddr_;
  mutable Spinlock lock_;
  std::vector<int> free_list_;
  std::vector<bool> is_free_;  // per-slot free state for double-free detection
  std::atomic<size_t> in_use_{0};  // written under lock_, read lock-free
};

}  // namespace eleos::suvm

#endif  // ELEOS_SRC_SUVM_PAGE_CACHE_H_
