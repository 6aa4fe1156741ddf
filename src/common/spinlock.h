// Copyright (c) Eleos reproduction authors. MIT license.
//
// Test-and-test-and-set spinlock built on x86 atomics.
//
// SGX enclave threads cannot use futex-based OS primitives (a blocked mutex
// would force an enclave exit), so the paper's trusted runtime synchronizes
// exclusively with user-space spinlocks. This is the lock used throughout the
// trusted side: SUVM page-table buckets, the page-cache free list, and the
// RPC completion flags.

#ifndef ELEOS_SRC_COMMON_SPINLOCK_H_
#define ELEOS_SRC_COMMON_SPINLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace eleos {

// Pause hint to the CPU while spinning; keeps the spin loop polite to the
// sibling hyperthread and lowers power. No-op on non-x86.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

// A minimal exclusive spinlock. Satisfies the C++ Lockable requirements so it
// can be used with std::lock_guard / std::scoped_lock.
class Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void lock() {
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      // Spin on a plain load first (TTAS) so we stay in shared cache state
      // until the lock looks free.
      while (locked_.load(std::memory_order_relaxed)) {
        CpuRelax();
      }
    }
  }

  bool try_lock() { return !locked_.exchange(true, std::memory_order_acquire); }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

// A spinlock that also models its own occupancy in *virtual* time.
//
// Real locks serialize wall-clock execution, but the simulator's virtual
// clocks are per-CPU and advance only via explicit charges — a plain Spinlock
// would let N threads serialize in real time while their virtual clocks
// overlap perfectly, making any "parallel speedup" measurement a tautology.
// VirtualGate closes that hole causally: it keeps a short sorted record of
// recent busy sections [start, end) in virtual time, and an entrant owes
// queueing delay only where its own section would overlap a recorded one
// (the caller charges it — the gate has no Machine dependency). A section
// that lies in the entrant's virtual future does not delay it as long as
// the entrant's section fits in the gap before it.
//
// Single-threaded property: one CPU's clock never trails its own sections,
// so Acquire always returns 0 and cycle counts are byte-identical to an
// unmodeled lock. Null-CPU callers pass now=0 to both calls and ignore the
// returned wait: Release(0) records nothing.
//
// Limit: only the last kMaxSections sections (by start time) are kept; an
// entrant older than the oldest retained section is charged nothing for
// the dropped ones.
class VirtualGate {
 public:
  static constexpr size_t kMaxSections = 32;

  VirtualGate() = default;
  VirtualGate(const VirtualGate&) = delete;
  VirtualGate& operator=(const VirtualGate&) = delete;

  // Takes the real lock; returns t - now for the earliest t >= now at which
  // [t, t + max(hold, 1)) overlaps no recorded section (0 when the gate is
  // virtually idle at `now`). `hold` is the virtual time the caller will
  // charge inside. The caller charges the returned wait before its gated
  // work, so its in-section charges start at t.
  uint64_t Acquire(uint64_t now, uint64_t hold) {
    lock_.lock();
    const uint64_t len = hold > 0 ? hold : 1;
    entry_ = now;
    for (const Section& s : sections_) {
      if (s.end <= entry_) {
        continue;
      }
      if (s.start >= entry_ + len) {
        break;  // the gap before s fits
      }
      entry_ = s.end;
    }
    return entry_ - now;
  }

  // Releases the real lock; records [t, now) — `now` is the holder's clock
  // after its in-section charges — merged with any section it overlaps or
  // touches. A holder that charged nothing records nothing.
  void Release(uint64_t now) {
    if (now > entry_) {
      Section merged{entry_, now};
      auto first = std::lower_bound(
          sections_.begin(), sections_.end(), merged.start,
          [](const Section& s, uint64_t t) { return s.end < t; });
      auto last = first;
      for (; last != sections_.end() && last->start <= merged.end; ++last) {
        merged.start = std::min(merged.start, last->start);
        merged.end = std::max(merged.end, last->end);
      }
      sections_.insert(sections_.erase(first, last), merged);
      if (sections_.size() > kMaxSections) {
        sections_.erase(sections_.begin());
      }
    }
    lock_.unlock();
  }

 private:
  struct Section {
    uint64_t start;
    uint64_t end;
  };

  Spinlock lock_;
  uint64_t entry_ = 0;              // guarded by lock_: holder's section start
  std::vector<Section> sections_;  // guarded by lock_: sorted, disjoint
};

}  // namespace eleos

#endif  // ELEOS_SRC_COMMON_SPINLOCK_H_
