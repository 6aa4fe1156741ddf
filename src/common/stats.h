// Copyright (c) Eleos reproduction authors. MIT license.
//
// The event counter the RPC layer, the fault injector and the apps keep
// their hostile-host totals in.

#ifndef ELEOS_SRC_COMMON_STATS_H_
#define ELEOS_SRC_COMMON_STATS_H_

#include <atomic>
#include <cstdint>

namespace eleos {

// Monotonic event counter, safe to bump from enclave threads and untrusted
// workers concurrently. Used for fault/fallback accounting where the readers
// (tests, benches) only need eventual totals.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // The atomic itself, for a metric registry that reads it in place.
  const std::atomic<uint64_t>& cell() const { return value_; }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace eleos

#endif  // ELEOS_SRC_COMMON_STATS_H_
