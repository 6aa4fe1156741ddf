// Copyright (c) Eleos reproduction authors. MIT license.
//
// Set-associative tag store with exact least-recently-used replacement: the
// one LRU under the LLC model, the MEE node cache and the TLB.
//
// Each set keeps its tags, a bitmask of its valid ways and its way ids in
// recency order, most recent first. A hit or a fill moves the way to the
// front, so the least recent way a fill may take is the last one of the
// order that the fill mask allows. That is the way a scan for the oldest
// per-way timestamp picks: timestamps are unique per access, so such a scan
// depends only on the recency order among the valid ways (DESIGN.md §15).

#ifndef ELEOS_SRC_SIM_LRU_TAG_STORE_H_
#define ELEOS_SRC_SIM_LRU_TAG_STORE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace eleos::sim {

class LruTagStore {
 public:
  // Throws std::invalid_argument unless there is at least one set and ways
  // is 1-64: a set's valid bits and fill mask are one uint64_t.
  LruTagStore(size_t sets, size_t ways)
      : ways_(CheckedWays(sets, ways)),
        all_ways_(ways == 64 ? ~uint64_t{0} : (uint64_t{1} << ways) - 1),
        tags_(sets * ways),
        order_(sets * ways),
        valid_(sets) {
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<uint8_t>(i % ways);
    }
  }

  // Looks tag up in every way of set; returns true on a hit. A miss fills
  // the lowest-index invalid way that fill_mask allows (bit i = way i), else
  // the least recent allowed way, else nothing. The way hit or filled
  // becomes the most recent.
  bool Access(size_t set, uint64_t tag, uint64_t fill_mask = ~uint64_t{0}) {
    uint8_t* order = &order_[set * ways_];
    size_t pos = Lookup(set, tag);
    if (pos < ways_) {
      MoveToFront(order, pos);
      return true;
    }
    const uint64_t allowed = fill_mask & all_ways_;
    if (allowed == 0) {
      return false;
    }
    const uint64_t invalid = allowed & ~valid_[set];
    if (invalid != 0) {
      const auto way = static_cast<uint8_t>(std::countr_zero(invalid));
      pos = static_cast<size_t>(std::find(order, order + ways_, way) - order);
    } else {
      // Every allowed way is valid: take the last allowed one in the order.
      pos = ways_ - 1;
      while (((allowed >> order[pos]) & 1) == 0) {
        --pos;
      }
    }
    const size_t way = order[pos];
    tags_[set * ways_ + way] = tag;
    valid_[set] |= uint64_t{1} << way;
    MoveToFront(order, pos);
    return false;
  }

  // Clears the valid bit of the way holding tag, if any.
  void Invalidate(size_t set, uint64_t tag) {
    const size_t pos = Lookup(set, tag);
    if (pos < ways_) {
      valid_[set] &= ~(uint64_t{1} << order_[set * ways_ + pos]);
    }
  }

  void InvalidateAll() { std::fill(valid_.begin(), valid_.end(), 0); }

  size_t sets() const { return valid_.size(); }
  size_t ways() const { return ways_; }
  uint64_t all_ways() const { return all_ways_; }  // a mask of every way

 private:
  static size_t CheckedWays(size_t sets, size_t ways) {
    if (sets == 0 || ways < 1 || ways > 64) {
      throw std::invalid_argument(
          "LruTagStore: needs at least one set and 1-64 ways");
    }
    return ways;
  }

  // The place in set's recency order of the valid way holding tag, or ways_
  // if none does. Scanning from the most recent way finds a tag that repeats
  // (the MEE node of a page being streamed) in one step.
  size_t Lookup(size_t set, uint64_t tag) const {
    const uint8_t* order = &order_[set * ways_];
    const uint64_t* tags = &tags_[set * ways_];
    const uint64_t valid = valid_[set];
    for (size_t pos = 0; pos < ways_; ++pos) {
      const size_t way = order[pos];
      if (tags[way] == tag && ((valid >> way) & 1) != 0) {
        return pos;
      }
    }
    return ways_;
  }

  // Moves the way at order[pos] to the front, shifting the more recent ones
  // back by one.
  static void MoveToFront(uint8_t* order, size_t pos) {
    const uint8_t way = order[pos];
    std::memmove(order + 1, order, pos);
    order[0] = way;
  }

  size_t ways_;
  uint64_t all_ways_;
  std::vector<uint64_t> tags_;   // sets x ways, set-major
  std::vector<uint8_t> order_;   // sets x ways way ids, most recent first
  std::vector<uint64_t> valid_;  // one bitmask per set
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_LRU_TAG_STORE_H_
