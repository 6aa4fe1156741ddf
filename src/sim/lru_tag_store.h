// Copyright (c) Eleos reproduction authors. MIT license.
//
// Set-associative tag store with exact least-recently-used replacement: the
// one LRU under the LLC model, the MEE node cache and the TLB.
//
// Each set keeps a tag per way, a bitmask of its valid ways, the way of rank
// 0, and per way a one-byte partial tag (the tag's low byte) and a recency
// rank: 0 for the most recent way up to ways - 1 for the least recent, so the
// ranks of a set are a permutation. The bytes sit in 16-way vectors:
//
// - a lookup tries the most recent way, then compares every way's partial
//   tag in one step per 16 ways and checks the full tag only where the byte
//   matched;
// - a hit or a fill gives its way rank 0 and ages each way that was more
//   recent by one, again in one step per 16 ways;
// - a miss with every allowed way valid takes the allowed way of highest
//   rank. It is found bit by bit from the top rank bit, one step per bit
//   (four for 16 ways), never by walking the order.
//
// That is the way a scan for the oldest per-way timestamp picks: timestamps
// are unique per access, so such a scan depends only on the recency order
// among the valid ways (DESIGN.md §15).

#ifndef ELEOS_SRC_SIM_LRU_TAG_STORE_H_
#define ELEOS_SRC_SIM_LRU_TAG_STORE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace eleos::sim {

class LruTagStore {
 public:
  // Throws std::invalid_argument unless there is at least one set and ways
  // is 1-64: a set's valid bits and fill mask are one uint64_t.
  LruTagStore(size_t sets, size_t ways)
      : ways_(CheckedWays(sets, ways)),
        chunks_((ways + kLanes - 1) / kLanes),
        all_ways_(ways == 64 ? ~uint64_t{0} : (uint64_t{1} << ways) - 1),
        tags_(sets * ways),
        lanes_(sets * 2 * chunks_),
        valid_(sets),
        mru_(sets) {
    // Way w starts at rank w, so way 0 is the most recent. Lanes past the
    // last way rank above every way and are never aged or chosen.
    for (size_t set = 0; set < sets; ++set) {
      Bytes* ranks = &lanes_[(2 * set + 1) * chunks_];
      for (size_t lane = 0; lane < chunks_ * kLanes; ++lane) {
        ranks[lane / kLanes][lane % kLanes] =
            static_cast<int8_t>(lane < ways ? lane : kPastLastWay);
      }
    }
  }

  // Looks tag up in every way of set; returns true on a hit. A miss fills
  // the lowest-index invalid way that fill_mask allows (bit i = way i), else
  // the least recent allowed way, else nothing. The way hit or filled
  // becomes the most recent.
  bool Access(size_t set, uint64_t tag, uint64_t fill_mask = ~uint64_t{0}) {
    switch (chunks_) {
      case 1:
        return AccessIn<1>(set, tag, fill_mask);
      case 2:
        return AccessIn<2>(set, tag, fill_mask);
      case 3:
        return AccessIn<3>(set, tag, fill_mask);
      default:
        return AccessIn<4>(set, tag, fill_mask);
    }
  }

  // Clears every valid bit; ranks and partial tags stay as they are.
  void InvalidateAll() { std::fill(valid_.begin(), valid_.end(), 0); }

  size_t sets() const { return valid_.size(); }
  size_t ways() const { return ways_; }
  uint64_t all_ways() const { return all_ways_; }  // a mask of every way

 private:
  // 16 ways per vector step. Ranks are at most 63 (127 past the last way),
  // so signed byte compares order them.
  typedef int8_t Bytes __attribute__((vector_size(16)));
  typedef uint16_t Halves __attribute__((vector_size(16)));
  static constexpr size_t kLanes = 16;
  static constexpr int8_t kPastLastWay = 127;

  static size_t CheckedWays(size_t sets, size_t ways) {
    if (sets == 0 || ways < 1 || ways > 64) {
      throw std::invalid_argument(
          "LruTagStore: needs at least one set and 1-64 ways");
    }
    return ways;
  }

  // Access for sets of kChunks x 16 lanes.
  template <size_t kChunks>
  bool AccessIn(size_t set, uint64_t tag, uint64_t fill_mask) {
    uint64_t* tags = &tags_[set * ways_];
    const uint64_t valid = valid_[set];
    // A tag that repeats (the MEE node of a page being streamed) hits the
    // most recent way, and a hit there ages no way.
    const size_t mru = mru_[set];
    if (tags[mru] == tag && ((valid >> mru) & 1) != 0) {
      return true;
    }
    Bytes* ptags = &lanes_[2 * set * kChunks];
    Bytes* ranks = ptags + kChunks;
    const auto ptag = static_cast<int8_t>(tag);
    const auto same_ptag = [ptag](Bytes v) { return v == ptag; };
    for (uint64_t match = Lanes<kChunks>(ptags, same_ptag) & valid; match != 0;
         match &= match - 1) {
      const auto way = static_cast<size_t>(std::countr_zero(match));
      if (tags[way] == tag) {
        Touch<kChunks>(set, ranks, way);
        return true;
      }
    }
    const uint64_t allowed = fill_mask & all_ways_;
    if (allowed == 0) {
      return false;
    }
    const uint64_t invalid = allowed & ~valid;
    const auto way = static_cast<size_t>(std::countr_zero(
        invalid != 0 ? invalid : Oldest<kChunks>(ranks, allowed)));
    tags[way] = tag;
    ptags[way / kLanes][way % kLanes] = ptag;
    valid_[set] = valid | uint64_t{1} << way;
    Touch<kChunks>(set, ranks, way);
    return false;
  }

  // Bit i of the result is the top bit of lane i % 16 of test(chunks[i / 16]).
  template <size_t kChunks, typename Test>
  static uint64_t Lanes(const Bytes* chunks, Test test) {
    uint64_t bits = 0;
    for (size_t c = 0; c < kChunks; ++c) {
      bits |= MoveMask(test(chunks[c])) << (c * kLanes);
    }
    return bits;
  }

  static uint64_t MoveMask(Bytes v) {
#if defined(__SSE2__)
    return static_cast<uint32_t>(_mm_movemask_epi8(reinterpret_cast<__m128i>(v)));
#else
    uint64_t bits = 0;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      bits |= static_cast<uint64_t>(v[lane] < 0) << lane;
    }
    return bits;
#endif
  }

  // A one-bit mask of the allowed way of highest rank; allowed is nonzero
  // and within all_ways_. Ranks are distinct, so keeping, from the top rank
  // bit down, the candidates that have the bit whenever any has it leaves
  // exactly that way.
  template <size_t kChunks>
  static uint64_t Oldest(const Bytes* ranks, uint64_t allowed) {
    constexpr int kRankBits = std::bit_width(kChunks * kLanes - 1);
    uint64_t candidates = allowed;
    for (int bit = kRankBits - 1; bit >= 0; --bit) {
      // Shifting the 16-bit lanes left by 7 - bit moves rank bit `bit` of
      // every byte to that byte's top bit.
      const auto has_bit = [bit](Bytes v) {
        return reinterpret_cast<Bytes>(reinterpret_cast<Halves>(v) << (7 - bit));
      };
      const uint64_t ones = candidates & Lanes<kChunks>(ranks, has_bit);
      candidates = ones != 0 ? ones : candidates;
    }
    return candidates;
  }

  // Makes way the most recent: every way more recent than it ages by one.
  template <size_t kChunks>
  void Touch(size_t set, Bytes* ranks, size_t way) {
    const int8_t rank = ranks[way / kLanes][way % kLanes];
    for (size_t c = 0; c < kChunks; ++c) {
      ranks[c] -= ranks[c] < rank;
    }
    ranks[way / kLanes][way % kLanes] = 0;
    mru_[set] = static_cast<uint8_t>(way);
  }

  size_t ways_;
  size_t chunks_;  // 16-way vector steps per set
  uint64_t all_ways_;
  std::vector<uint64_t> tags_;  // sets x ways, set-major
  // Per set, chunks_ vectors of partial tags, then chunks_ vectors of ranks.
  std::vector<Bytes> lanes_;
  std::vector<uint64_t> valid_;  // one bitmask per set
  std::vector<uint8_t> mru_;     // per set, the way of rank 0
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_LRU_TAG_STORE_H_
