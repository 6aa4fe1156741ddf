// Copyright (c) Eleos reproduction authors. MIT license.
//
// The per-way timestamp TLB that sim::TlbModel replaced with the shared
// exact-LRU tag store, verbatim but for a single-page shootdown and a stats
// reset, which the model has no counterpart for. tlb_model_test drives both
// with seeded streams and requires equal results; cache_model_test's
// reference Machine charges TLB walks through it.

#ifndef ELEOS_TESTS_REFERENCE_TLB_MODEL_H_
#define ELEOS_TESTS_REFERENCE_TLB_MODEL_H_

#include <cstdint>
#include <vector>

namespace eleos::sim::reference {

class TlbModel {
 public:
  // Skylake STLB: 1536 entries, 12-way. Defaults chosen to match.
  explicit TlbModel(size_t entries = 1536, size_t ways = 12)
      : ways_(ways), sets_(entries / ways), slots_(entries), tick_(0) {}

  // Looks up a virtual page number; inserts it on miss. Returns hit/miss.
  bool Access(uint64_t vpn) {
    const size_t set = static_cast<size_t>(vpn) % sets_;
    Slot* base = &slots_[set * ways_];
    ++tick_;
    for (size_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].vpn == vpn) {
        base[w].last_used = tick_;
        ++hits_;
        return true;
      }
    }
    // Miss: install over invalid or LRU way.
    size_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (size_t w = 0; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = w;
        break;
      }
      if (base[w].last_used < oldest) {
        oldest = base[w].last_used;
        victim = w;
      }
    }
    base[victim] = {vpn, tick_, true};
    ++misses_;
    return false;
  }

  // Full flush, as performed by enclave exits.
  void FlushAll() {
    for (auto& s : slots_) {
      s.valid = false;
    }
    ++flushes_;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t flushes() const { return flushes_; }

 private:
  struct Slot {
    uint64_t vpn = 0;
    uint64_t last_used = 0;
    bool valid = false;
  };

  size_t ways_;
  size_t sets_;
  std::vector<Slot> slots_;
  uint64_t tick_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace eleos::sim::reference

#endif  // ELEOS_TESTS_REFERENCE_TLB_MODEL_H_
