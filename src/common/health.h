// Copyright (c) Eleos reproduction authors. MIT license.
//
// Per-subsystem health state machine: the shared core of the self-healing
// layer (RPC circuit breaker, SUVM allocation degradation).
//
// Eleos's exit-less services depend on untrusted machinery (worker threads,
// a shared job queue, a host-managed backing arena). PR 1 made every
// individual failure survivable, but statelessly: each call re-pays the full
// detection cost (spin budgets burned, retries re-run). The HealthFsm adds
// the memory: after `failure_threshold` *consecutive* failures the subsystem
// trips kHealthy -> kDegraded and callers are told to take their cheap
// fallback immediately; every `probe_interval`-th denied admission instead
// becomes a probe (kDegraded -> kProbing), whose outcome either closes the
// loop (kProbing -> kHealthy) or re-opens it (kProbing -> kDegraded).
//
//            RecordFailure x threshold
//   kHealthy --------------------------> kDegraded <---+
//      ^                                     |         | RecordFailure
//      |            Admit() == kProbe        v         |
//      +------------ RecordSuccess ------ kProbing ----+
//
// In circuit-breaker terms: kHealthy = closed, kDegraded = open,
// kProbing = half-open. Thread-safe; the healthy-path Admit() is a single
// relaxed atomic load so benign runs pay (and observe) nothing.

#ifndef ELEOS_SRC_COMMON_HEALTH_H_
#define ELEOS_SRC_COMMON_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/common/spinlock.h"

namespace eleos {

enum class HealthState : uint32_t {
  kHealthy = 0,   // breaker closed: full-fidelity path admitted
  kDegraded = 1,  // breaker open: deny, callers use their fallback
  kProbing = 2,   // breaker half-open: one in-flight probe decides
};

inline const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kProbing: return "probing";
  }
  return "unknown";
}

class HealthFsm {
 public:
  struct Options {
    // Consecutive failures before kHealthy trips to kDegraded. 0 disables
    // the FSM entirely: Admit() always allows, failures are only counted.
    uint32_t failure_threshold = 3;
    // While degraded, every `probe_interval`-th denied admission is upgraded
    // to a probe. Must be >= 1 (1 = probe on every admission attempt).
    uint64_t probe_interval = 64;
  };

  enum class Gate {
    kAllow,  // healthy: run the real path
    kDeny,   // degraded: take the fallback, zero detection cost
    kProbe,  // caller must run a cheap probe and report its outcome
  };

  HealthFsm() : HealthFsm(Options()) {}
  explicit HealthFsm(Options options) : options_(options) {
    if (options_.probe_interval == 0) {
      options_.probe_interval = 1;
    }
  }

  HealthFsm(const HealthFsm&) = delete;
  HealthFsm& operator=(const HealthFsm&) = delete;

  HealthState state() const { return state_.load(std::memory_order_relaxed); }
  // The atomics behind state() and probes(), for lock-free metric reads.
  const std::atomic<HealthState>& state_cell() const { return state_; }
  const std::atomic<uint64_t>& probes_cell() const { return probes_; }

  // Admission decision for one operation. kProbe hands the caller the
  // half-open slot: it MUST follow up with RecordSuccess or RecordFailure.
  Gate Admit() {
    if (options_.failure_threshold == 0 ||
        state_.load(std::memory_order_relaxed) == HealthState::kHealthy) {
      return Gate::kAllow;  // fast path: benign host, one relaxed load
    }
    std::lock_guard guard(lock_);
    switch (state_.load(std::memory_order_relaxed)) {
      case HealthState::kHealthy:
        return Gate::kAllow;  // raced with a concurrent recovery
      case HealthState::kProbing:
        return Gate::kDeny;  // someone else owns the in-flight probe
      case HealthState::kDegraded:
        if (++denied_since_trip_ >= options_.probe_interval) {
          denied_since_trip_ = 0;
          Transition(HealthState::kProbing);
          probes_.fetch_add(1, std::memory_order_relaxed);
          return Gate::kProbe;
        }
        return Gate::kDeny;
    }
    return Gate::kAllow;
  }

  // Reports a successful real operation (or probe). Resets the failure
  // streak; closes a half-open/open breaker. Returns true on the
  // recovered-to-healthy transition (so callers can trace/count it once).
  bool RecordSuccess() {
    std::lock_guard guard(lock_);
    fail_streak_ = 0;
    const HealthState s = state_.load(std::memory_order_relaxed);
    if (s == HealthState::kHealthy) {
      return false;
    }
    denied_since_trip_ = 0;
    Transition(HealthState::kHealthy);
    return true;
  }

  // Reports a failed real operation (or probe). Returns true on the
  // tripped-to-degraded transition from healthy (a probe failure re-opens
  // the breaker but is not a fresh trip).
  bool RecordFailure() {
    std::lock_guard guard(lock_);
    switch (state_.load(std::memory_order_relaxed)) {
      case HealthState::kProbing:
        Transition(HealthState::kDegraded);
        return false;
      case HealthState::kDegraded:
        return false;
      case HealthState::kHealthy:
        if (options_.failure_threshold != 0 &&
            ++fail_streak_ >= options_.failure_threshold) {
          fail_streak_ = 0;
          ++trips_;
          Transition(HealthState::kDegraded);
          return true;
        }
        return false;
    }
    return false;
  }

  // Forces the breaker open regardless of the failure streak: used when an
  // external event (e.g. partial crash recovery) proves the subsystem is
  // unhealthy without having gone through `failure_threshold` admissions.
  // Counts as a trip; no-op when the FSM is disabled or already degraded.
  bool ForceDegrade() {
    std::lock_guard guard(lock_);
    if (options_.failure_threshold == 0 ||
        state_.load(std::memory_order_relaxed) == HealthState::kDegraded) {
      return false;
    }
    fail_streak_ = 0;
    denied_since_trip_ = 0;
    ++trips_;
    Transition(HealthState::kDegraded);
    return true;
  }

  // Observability (all monotonic).
  uint64_t trips() const {
    std::lock_guard guard(lock_);
    return trips_;
  }
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t transitions() const {
    std::lock_guard guard(lock_);
    return transitions_;
  }

 private:
  void Transition(HealthState next) {  // lock_ held
    ++transitions_;
    state_.store(next, std::memory_order_relaxed);
  }

  Options options_;
  std::atomic<HealthState> state_{HealthState::kHealthy};
  mutable Spinlock lock_;
  uint32_t fail_streak_ = 0;       // guarded by lock_
  uint64_t denied_since_trip_ = 0; // guarded by lock_
  uint64_t trips_ = 0;
  std::atomic<uint64_t> probes_{0};  // written under lock_, read lock-free
  uint64_t transitions_ = 0;
};

}  // namespace eleos

#endif  // ELEOS_SRC_COMMON_HEALTH_H_
