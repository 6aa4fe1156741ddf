// Copyright (c) Eleos reproduction authors. MIT license.
//
// Shared last-level-cache model with Intel CAT (Cache Allocation Technology)
// way partitioning, plus a model of the SGX Memory Encryption Engine's
// integrity-tree node cache.
//
// This is where both of the paper's indirect costs live:
//  * LLC pollution: syscall I/O buffers (OCALL path) or RPC worker buffers
//    compete with enclave data for LLC space. CAT confines a class of
//    service to a subset of ways *for fills*; lookups still hit all ways.
//  * Expensive EPC misses: an LLC miss to an EPC line pays the MEE
//    decrypt + integrity-walk factors of Table 1. Writes whose integrity
//    tree node misses the MEE node cache (random patterns) pay the higher
//    factor.

#ifndef ELEOS_SRC_SIM_CACHE_MODEL_H_
#define ELEOS_SRC_SIM_CACHE_MODEL_H_

#include <cstdint>
#include <mutex>

#include "src/common/spinlock.h"
#include "src/sim/cost_model.h"
#include "src/sim/lru_tag_store.h"

namespace eleos::sim {

// Memory spaces distinguish the miss penalty.
enum class MemKind : uint8_t {
  kUntrusted = 0,  // regular DRAM
  kEpc = 1,        // processor-reserved, MEE-protected
};

// CAT classes of service used throughout the repo.
inline constexpr int kCosShared = 0;    // no partitioning: all ways
inline constexpr int kCosEnclave = 1;   // Eleos: 75% of ways
inline constexpr int kCosRpcWorker = 2; // Eleos: 25% of ways
inline constexpr int kNumCos = 3;

class CacheModel {
 public:
  // Throws std::invalid_argument for a geometry the model cannot represent:
  // a line other than 64 bytes (Machine maps addresses to lines and pages
  // with fixed shifts), ways outside 1-64 (a way mask is one uint64_t), a
  // set count that is zero or not a power of two (sets are indexed by mask
  // and shift), or an MEE node cache outside 1-64 pages (one set of ways).
  explicit CacheModel(const CostModel& costs);

  // Sets the fill mask (bit i = way i usable) for a class of service.
  void SetWayMask(int cos, uint64_t mask);
  // Convenience: Eleos's 75/25 split between enclave and RPC worker.
  void EnablePartitioning(double enclave_fraction = 0.75);
  void DisablePartitioning();

  // One cache-line access. Returns the cycle cost (L1/LLC hit or miss with
  // the proper EPC factors applied). Thread-safe: the LLC is a shared
  // resource, so concurrently faulting CPUs serialize on an internal lock
  // (their interleaving decides the shared line/MEE state, which is why
  // multi-threaded cycle counts are ordering-dependent while single-threaded
  // runs stay deterministic).
  uint64_t Access(uint64_t line_addr, bool write, MemKind kind, int cos);

  // One contiguous access to lines first_line..last_line: each line goes
  // through the model as Access would take it, in ascending order, under one
  // acquisition of the lock, so racing CPUs see a range enter the LLC as one
  // unit. Returns the summed cost, where a line past the first two that costs
  // at least an LLC miss is charged the streaming rate instead: hardware
  // prefetch hides random-miss latency on sequential lines.
  uint64_t AccessRange(uint64_t first_line, uint64_t last_line, bool write,
                       MemKind kind, int cos);

  // Stats.
  uint64_t hits() const {
    std::lock_guard guard(lock_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard guard(lock_);
    return misses_;
  }
  void ResetStats();

  size_t num_sets() const { return lines_.sets(); }
  size_t num_ways() const { return lines_.ways(); }

 private:
  // Requires lock_ held.
  uint64_t AccessLocked(uint64_t line_addr, bool write, MemKind kind, int cos);

  mutable Spinlock lock_;  // guards lines_/tick_/hits_/misses_/mee_nodes_
  const CostModel& costs_;
  size_t set_shift_;  // log2 of the set count
  LruTagStore lines_;
  uint64_t way_mask_[kNumCos];
  uint64_t tick_ = 0;  // accesses, for the L1/LLC split of hits
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;

  // Tiny fully-associative LRU of integrity-tree nodes (one node per page).
  LruTagStore mee_nodes_;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_CACHE_MODEL_H_
