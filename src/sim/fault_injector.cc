// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/fault_injector.h"

#include <mutex>

namespace eleos::sim {

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed ^ 0xfa017c0de5ull) {}

void FaultInjector::ArmLocked(Fault fault, double probability,
                              uint64_t max_triggers) {
  Point& p = points_[Index(fault)];
  p.probability = probability;
  p.triggers_left = max_triggers;
  p.armed.store(probability > 0.0 && max_triggers > 0,
                std::memory_order_release);
}

void FaultInjector::DisarmLocked(Fault fault) {
  Point& p = points_[Index(fault)];
  p.armed.store(false, std::memory_order_release);
  p.probability = 0.0;
  p.triggers_left = 0;
}

void FaultInjector::Arm(Fault fault, double probability, uint64_t max_triggers) {
  std::lock_guard guard(lock_);
  ArmLocked(fault, probability, max_triggers);
}

void FaultInjector::Disarm(Fault fault) {
  std::lock_guard guard(lock_);
  DisarmLocked(fault);
}

void FaultInjector::DisarmAll() {
  for (size_t i = 0; i < static_cast<size_t>(Fault::kCount); ++i) {
    Disarm(static_cast<Fault>(i));
  }
}

bool FaultInjector::ShouldInject(Fault fault) {
  Point& p = points_[Index(fault)];
  if (!p.armed.load(std::memory_order_relaxed)) {
    return false;  // fast path: benign host
  }
  p.checks.Add();
  std::lock_guard guard(lock_);
  if (p.triggers_left == 0) {
    p.armed.store(false, std::memory_order_release);
    return false;
  }
  const bool hit = p.probability >= 1.0 || rng_.NextDouble() < p.probability;
  if (!hit) {
    return false;
  }
  if (--p.triggers_left == 0) {
    p.armed.store(false, std::memory_order_release);
  }
  p.injected.Add();
  return true;
}

void FaultInjector::LoadSchedule(std::vector<FaultPhase> schedule) {
  std::lock_guard guard(lock_);
  for (PhaseState& ps : schedule_) {
    if (ps.active) {
      DisarmLocked(ps.phase.fault);
    }
  }
  schedule_.clear();
  schedule_.reserve(schedule.size());
  for (const FaultPhase& phase : schedule) {
    schedule_.push_back({phase, /*active=*/false, phase.max_triggers});
  }
}

void FaultInjector::ClearSchedule() { LoadSchedule({}); }

void FaultInjector::AdvanceTime(uint64_t tick) {
  std::lock_guard guard(lock_);
  constexpr size_t kFaults = static_cast<size_t>(Fault::kCount);
  // Per fault, the winning in-window phase is the LAST one in schedule order.
  // Overlapping windows of the same fault therefore form a union: the fault
  // stays armed while any window covers the tick, a burst window overrides a
  // longer background window for its duration, and the background window
  // resumes (with its banked budget) once the burst ends.
  PhaseState* winner[kFaults] = {};
  for (PhaseState& ps : schedule_) {
    if (ps.phase.start_tick <= tick && tick < ps.phase.end_tick) {
      winner[Index(ps.phase.fault)] = &ps;
    }
  }
  // Deactivate losers first, banking their remaining budget. At most one
  // phase per fault is ever active, so the live Point budget belongs to it.
  bool handed_off[kFaults] = {};
  for (PhaseState& ps : schedule_) {
    const size_t f = Index(ps.phase.fault);
    if (ps.active && winner[f] != &ps) {
      ps.triggers_left = points_[f].triggers_left;
      ps.active = false;
      handed_off[f] = true;
    }
  }
  // Arm new winners with their banked budget. Disarm a fault only when one of
  // its phases just stepped down and nothing else claims the tick — a fault
  // armed manually (no schedule entry) is never touched here.
  for (size_t f = 0; f < kFaults; ++f) {
    PhaseState* w = winner[f];
    if (w != nullptr) {
      if (!w->active) {
        ArmLocked(w->phase.fault, w->phase.probability, w->triggers_left);
        w->active = true;
      }
    } else if (handed_off[f]) {
      DisarmLocked(static_cast<Fault>(f));
    }
  }
}

size_t FaultInjector::active_phases() const {
  std::lock_guard guard(lock_);
  size_t n = 0;
  for (const PhaseState& ps : schedule_) {
    n += ps.active ? 1 : 0;
  }
  return n;
}

size_t FaultInjector::schedule_size() const {
  std::lock_guard guard(lock_);
  return schedule_.size();
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (const Point& p : points_) {
    total += p.injected.value();
  }
  return total;
}

}  // namespace eleos::sim
