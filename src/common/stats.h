// Copyright (c) Eleos reproduction authors. MIT license.
//
// Small statistics helpers shared by tests and benchmark harnesses.

#ifndef ELEOS_SRC_COMMON_STATS_H_
#define ELEOS_SRC_COMMON_STATS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

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
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  // The atomic itself, for a metric registry that reads it in place.
  const std::atomic<uint64_t>& cell() const { return value_; }

 private:
  std::atomic<uint64_t> value_{0};
};

// Online mean/variance accumulator (Welford).
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Fixed set of samples with percentile queries; used by latency benches.
class Samples {
 public:
  void Add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  size_t count() const { return values_.size(); }

  double Percentile(double p) {
    if (values_.empty()) {
      return 0.0;
    }
    Sort();
    const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
  }

  double Mean() const {
    if (values_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double v : values_) {
      sum += v;
    }
    return sum / static_cast<double>(values_.size());
  }

 private:
  void Sort() {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }

  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace eleos

#endif  // ELEOS_SRC_COMMON_STATS_H_
