// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/cache_model.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace eleos::sim {
namespace {

// log2 of the LLC's set count; throws for a geometry the model cannot
// represent (see the constructor's comment).
size_t SetShift(const CostModel& c) {
  if (c.llc_line != 64) {
    throw std::invalid_argument("CacheModel: llc_line must be 64 bytes");
  }
  if (c.llc_ways < 1 || c.llc_ways > 64) {
    throw std::invalid_argument("CacheModel: llc_ways must be 1-64");
  }
  const size_t sets = c.llc_bytes / (c.llc_line * c.llc_ways);
  if (!std::has_single_bit(sets)) {
    throw std::invalid_argument(
        "CacheModel: the set count must be a nonzero power of two");
  }
  return static_cast<size_t>(std::countr_zero(sets));
}

}  // namespace

CacheModel::CacheModel(const CostModel& costs)
    : costs_(costs),
      ways_(costs.llc_ways),
      set_shift_(SetShift(costs)),
      lines_(num_sets() * ways_),
      mee_pages_(costs.mee_tree_cache_pages, UINT64_MAX),
      mee_used_(costs.mee_tree_cache_pages, 0) {
  const uint64_t all = (ways_ >= 64) ? ~0ull : ((1ull << ways_) - 1);
  for (int i = 0; i < kNumCos; ++i) {
    way_mask_[i] = all;
  }
}

void CacheModel::SetWayMask(int cos, uint64_t mask) {
  if (cos >= 0 && cos < kNumCos && mask != 0) {
    way_mask_[cos] = mask;
  }
}

void CacheModel::EnablePartitioning(double enclave_fraction) {
  const size_t enclave_ways =
      static_cast<size_t>(std::lround(enclave_fraction * static_cast<double>(ways_)));
  const size_t clamped = enclave_ways == 0 ? 1 : (enclave_ways >= ways_ ? ways_ - 1 : enclave_ways);
  const uint64_t enclave_mask = (1ull << clamped) - 1;
  const uint64_t all = (ways_ >= 64) ? ~0ull : ((1ull << ways_) - 1);
  SetWayMask(kCosEnclave, enclave_mask);
  SetWayMask(kCosRpcWorker, all & ~enclave_mask);
}

void CacheModel::DisablePartitioning() {
  const uint64_t all = (ways_ >= 64) ? ~0ull : ((1ull << ways_) - 1);
  for (int i = 0; i < kNumCos; ++i) {
    way_mask_[i] = all;
  }
}

bool CacheModel::MeeTreeAccess(uint64_t page) {
  ++mee_tick_;
  size_t victim = 0;
  uint64_t oldest = UINT64_MAX;
  for (size_t i = 0; i < mee_pages_.size(); ++i) {
    if (mee_pages_[i] == page) {
      mee_used_[i] = mee_tick_;
      return true;
    }
    if (mee_used_[i] < oldest) {
      oldest = mee_used_[i];
      victim = i;
    }
  }
  mee_pages_[victim] = page;
  mee_used_[victim] = mee_tick_;
  return false;
}

uint64_t CacheModel::Access(uint64_t line_addr, bool write, MemKind kind, int cos) {
  std::lock_guard guard(lock_);
  return AccessLocked(line_addr, write, kind, cos);
}

uint64_t CacheModel::AccessRange(uint64_t first_line, uint64_t last_line,
                                 bool write, MemKind kind, int cos) {
  const uint64_t streamed = kind == MemKind::kEpc
                                ? costs_.stream_epc_line_cycles
                                : costs_.stream_line_cycles;
  uint64_t total = 0;
  std::lock_guard guard(lock_);
  for (uint64_t line = first_line; line <= last_line; ++line) {
    const uint64_t cost = AccessLocked(line, write, kind, cos);
    total += (line - first_line >= 2 && cost >= costs_.llc_miss_cycles)
                 ? streamed
                 : cost;
  }
  return total;
}

uint64_t CacheModel::AccessLocked(uint64_t line_addr, bool write, MemKind kind,
                                  int cos) {
  const size_t set =
      static_cast<size_t>(line_addr & ((uint64_t{1} << set_shift_) - 1));
  const uint64_t tag = line_addr >> set_shift_;
  Line* base = &lines_[set * ways_];
  ++tick_;

  // Lookup: all ways, regardless of CAT mask.
  for (size_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].last_used = tick_;
      ++hits_;
      // Rough split: treat a fraction of hits as L1-served. The model has no
      // L1, so every 4th access pays the LLC-hit latency, the rest L1.
      return (tick_ & 3) == 0 ? costs_.llc_hit_cycles : costs_.l1_hit_cycles;
    }
  }
  ++misses_;

  // Fill: restricted to the CAT mask of this class of service.
  const uint64_t mask = (cos >= 0 && cos < kNumCos) ? way_mask_[cos] : way_mask_[0];
  size_t victim = ways_;  // invalid
  uint64_t oldest = UINT64_MAX;
  for (size_t w = 0; w < ways_; ++w) {
    if ((mask & (1ull << w)) == 0) {
      continue;
    }
    if (!base[w].valid) {
      victim = w;
      break;
    }
    if (base[w].last_used < oldest) {
      oldest = base[w].last_used;
      victim = w;
    }
  }
  if (victim < ways_) {
    base[victim] = {tag, tick_, true};
  }

  if (kind == MemKind::kUntrusted) {
    return costs_.llc_miss_cycles;
  }
  // EPC miss: the MEE decrypts the line and walks the integrity tree.
  double factor;
  if (write) {
    const bool tree_hit = MeeTreeAccess(line_addr >> 6);  // line -> page
    factor = tree_hit ? costs_.epc_miss_write_factor_tree_hit
                      : costs_.epc_miss_write_factor_tree_miss;
  } else {
    factor = costs_.epc_miss_read_factor;
  }
  return static_cast<uint64_t>(static_cast<double>(costs_.llc_miss_cycles) * factor);
}

void CacheModel::ResetStats() {
  std::lock_guard guard(lock_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace eleos::sim
