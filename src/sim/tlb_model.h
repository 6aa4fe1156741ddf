// Copyright (c) Eleos reproduction authors. MIT license.
//
// Per-core TLB model.
//
// SGX flushes the TLB on every enclave exit (EEXIT and AEX both invalidate
// enclave mappings), which is one of the two indirect exit costs the paper
// quantifies (§2.2.1, Figure 2b). The model is a set-associative unified
// second-level TLB on the shared exact-LRU tag store; a miss charges a
// page-walk. Every modelled invalidation is a full flush: an enclave exit, a
// fault's AEX, and the AEX that a driver eviction's shootdown IPI forces on
// each other CPU running in the enclave.

#ifndef ELEOS_SRC_SIM_TLB_MODEL_H_
#define ELEOS_SRC_SIM_TLB_MODEL_H_

#include <cstdint>

#include "src/sim/lru_tag_store.h"

namespace eleos::sim {

class TlbModel {
 public:
  // Skylake STLB: 1536 entries, 12-way. Defaults chosen to match. Throws
  // std::invalid_argument unless ways is 1-64 and entries >= ways.
  explicit TlbModel(size_t entries = 1536, size_t ways = 12)
      : slots_(ways == 0 ? 0 : entries / ways, ways) {}

  // Looks up a virtual page number; inserts it on miss, over the lowest
  // invalid way of its set or else the least recently used one. Returns
  // hit/miss.
  bool Access(uint64_t vpn) {
    // The set is vpn mod sets, so the quotient names the page within its set;
    // its low byte is what the store's partial tags compare.
    const uint64_t sets = slots_.sets();
    if (slots_.Access(static_cast<size_t>(vpn % sets), vpn / sets)) {
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  // Full flush, as performed by enclave exits and AEXs.
  void FlushAll() {
    slots_.InvalidateAll();
    ++flushes_;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t flushes() const { return flushes_; }

 private:
  LruTagStore slots_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_TLB_MODEL_H_
