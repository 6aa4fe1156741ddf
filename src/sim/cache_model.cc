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
      set_shift_(SetShift(costs)),
      lines_(size_t{1} << set_shift_, costs.llc_ways),
      mee_nodes_(1, costs.mee_tree_cache_pages) {
  DisablePartitioning();
}

void CacheModel::SetWayMask(int cos, uint64_t mask) {
  if (cos >= 0 && cos < kNumCos && mask != 0) {
    way_mask_[cos] = mask;
  }
}

void CacheModel::EnablePartitioning(double enclave_fraction) {
  const size_t ways = num_ways();
  const size_t enclave_ways =
      static_cast<size_t>(std::lround(enclave_fraction * static_cast<double>(ways)));
  const size_t clamped = enclave_ways == 0 ? 1 : (enclave_ways >= ways ? ways - 1 : enclave_ways);
  const uint64_t enclave_mask = (1ull << clamped) - 1;
  SetWayMask(kCosEnclave, enclave_mask);
  SetWayMask(kCosRpcWorker, lines_.all_ways() & ~enclave_mask);
}

void CacheModel::DisablePartitioning() {
  for (int i = 0; i < kNumCos; ++i) {
    way_mask_[i] = lines_.all_ways();
  }
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
  // Lookups hit all ways; fills are restricted to the class's CAT mask.
  const uint64_t mask = (cos >= 0 && cos < kNumCos) ? way_mask_[cos] : way_mask_[0];
  ++tick_;
  if (lines_.Access(set, line_addr >> set_shift_, mask)) {
    ++hits_;
    // Rough split: treat a fraction of hits as L1-served. The model has no
    // L1, so every 4th access pays the LLC-hit latency, the rest L1.
    return (tick_ & 3) == 0 ? costs_.llc_hit_cycles : costs_.l1_hit_cycles;
  }
  ++misses_;

  if (kind == MemKind::kUntrusted) {
    return costs_.llc_miss_cycles;
  }
  // EPC miss: the MEE decrypts the line and walks the integrity tree.
  double factor;
  if (write) {
    const bool tree_hit = mee_nodes_.Access(0, line_addr >> 6);  // line -> page
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
