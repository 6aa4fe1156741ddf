// Copyright (c) Eleos reproduction authors. MIT license.
//
// Hostile-host fault injection (deterministic, seed-driven).
//
// Eleos runs OS services through untrusted memory and untrusted worker
// threads, so the host can stall or kill workers, drop completions, exert
// queue-full backpressure, tamper with or roll back backing-store ciphertext,
// and fail allocations. The FaultInjector is the single switchboard for all
// of those behaviours: each injection point is armed with a probability and a
// trigger budget, rolls a dedicated seeded RNG, and counts both checks and
// injections so tests can assert exactly what fired. Disarmed points cost one
// relaxed atomic load — the default (nothing armed) leaves every workload
// byte-identical to a benign host.

#ifndef ELEOS_SRC_SIM_FAULT_INJECTOR_H_
#define ELEOS_SRC_SIM_FAULT_INJECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/spinlock.h"
#include "src/telemetry/telemetry.h"

namespace eleos::sim {

enum class Fault : size_t {
  // RPC layer (untrusted workers / shared job queue).
  kWorkerStall = 0,    // worker pauses mid-job (preempted / malicious delay)
  kWorkerDeath = 1,    // worker thread silently exits
  kCompletionDrop = 2, // job runs but its completion is never published
  kQueueFull = 3,      // submitter sees artificial queue-full backpressure
  // SUVM / backing store (untrusted ciphertext arena).
  kCiphertextFlip = 4, // bit-flip in the sealed page before decryption
  kRollback = 5,       // host replays a stale-but-once-valid sealed page
  kBackingAllocFail = 6,  // host refuses to grow the backing arena
  // Crash consistency (journaled backing store).
  kHostCrash = 7,   // host process dies mid-operation; enclave state is lost
  kTornWrite = 8,   // the write in flight at the crash lands partially
  // RPC layer, continued.
  kWorkerDeathWithClaim = 9,  // worker dies between claiming and completing
  // Untrusted-memory boundary (TOCTOU / Iago adversaries, DESIGN.md §12).
  kSharedMemScribbler = 10,  // concurrent thread flips bytes in live shared state
  kIagoReturn = 11,          // host syscall returns out-of-range sizes/statuses
  kCount = 12,
};

inline const char* FaultName(Fault f) {
  switch (f) {
    case Fault::kWorkerStall: return "worker_stall";
    case Fault::kWorkerDeath: return "worker_death";
    case Fault::kCompletionDrop: return "completion_drop";
    case Fault::kQueueFull: return "queue_full";
    case Fault::kCiphertextFlip: return "ciphertext_flip";
    case Fault::kRollback: return "rollback";
    case Fault::kBackingAllocFail: return "backing_alloc_fail";
    case Fault::kHostCrash: return "host_crash";
    case Fault::kTornWrite: return "torn_write";
    case Fault::kWorkerDeathWithClaim: return "worker_death_with_claim";
    case Fault::kSharedMemScribbler: return "shared_mem_scribbler";
    case Fault::kIagoReturn: return "iago_return";
    case Fault::kCount: break;
  }
  return "unknown";
}

// One window of a fault schedule: `fault` is armed with `probability` and
// (the remainder of) `max_triggers` while virtual time t satisfies
// start_tick <= t < end_tick. The trigger budget is a property of the phase,
// not the window: a phase that deactivates and later reactivates resumes
// with whatever budget it had left. Phases of the same fault may overlap:
// the windows form a union (the fault is armed iff some window contains the
// tick), and while several windows cover the same tick the LAST one in
// schedule order supplies the probability and budget — so a short burst
// phase overrides a long background phase, which resumes when the burst
// window closes.
struct FaultPhase {
  Fault fault = Fault::kWorkerStall;
  double probability = 1.0;
  uint64_t max_triggers = UINT64_MAX;
  uint64_t start_tick = 0;
  uint64_t end_tick = UINT64_MAX;  // half-open [start_tick, end_tick)
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0xfa17);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms `fault` to fire with `probability` per check, at most `max_triggers`
  // times. probability >= 1.0 fires on every check until the budget runs out.
  void Arm(Fault fault, double probability, uint64_t max_triggers = UINT64_MAX);
  void Disarm(Fault fault);
  void DisarmAll();

  // --- Virtual-time multi-fault schedule ---
  // Installs a schedule of overlapping fault windows driven by an external
  // virtual clock (the soak harness's round counter, a workload's op count —
  // any monotonic tick the caller owns). Replaces any previous schedule and
  // disarms its faults; manually Arm()ed faults not named by any phase are
  // left alone. Nothing is armed until the first AdvanceTime call.
  void LoadSchedule(std::vector<FaultPhase> schedule);
  // Deactivates and clears the schedule (scheduled faults are disarmed).
  void ClearSchedule();
  // Moves the schedule clock to `tick` (need not be monotonic): each fault is
  // armed iff some phase window contains `tick`, using the winning phase's
  // probability and remaining trigger budget (see FaultPhase on overlap);
  // phases that step down have their budget saved for a later window.
  // Deterministic given (seed, schedule, tick sequence).
  void AdvanceTime(uint64_t tick);
  // Number of schedule phases currently armed (after the last AdvanceTime).
  size_t active_phases() const;
  size_t schedule_size() const;

  // Rolls the dice at an injection point. Counts the check; on a hit, counts
  // the injection and consumes one trigger. Thread-safe.
  bool ShouldInject(Fault fault);

  // Cheap armed-ness probe for code that must do extra bookkeeping (e.g.
  // stashing stale seals for rollback replay) only while a point is live.
  bool armed(Fault fault) const {
    return points_[Index(fault)].armed.load(std::memory_order_relaxed);
  }

  uint64_t checks(Fault fault) const { return points_[Index(fault)].checks.value(); }
  uint64_t injected(Fault fault) const {
    return points_[Index(fault)].injected.value();
  }
  uint64_t total_injected() const;

  // How long an injected kWorkerStall pauses the worker, in CpuRelax spins
  // (virtual "cycles" of the polling loop — the worker holds its claimed slot
  // the whole time, so the submitter's spin budget is what bounds the damage).
  void set_worker_stall_spins(uint64_t spins) {
    worker_stall_spins_.store(spins, std::memory_order_relaxed);
  }
  uint64_t worker_stall_spins() const {
    return worker_stall_spins_.load(std::memory_order_relaxed);
  }

 private:
  static size_t Index(Fault f) { return static_cast<size_t>(f); }

  void ArmLocked(Fault fault, double probability, uint64_t max_triggers);
  void DisarmLocked(Fault fault);

  struct Point {
    std::atomic<bool> armed{false};
    double probability = 0.0;          // guarded by lock
    uint64_t triggers_left = 0;        // guarded by lock
    telemetry::Counter checks;
    telemetry::Counter injected;
  };

  struct PhaseState {
    FaultPhase phase;
    bool active = false;
    uint64_t triggers_left = 0;  // remaining budget while inactive
  };

  Point points_[static_cast<size_t>(Fault::kCount)];
  std::atomic<uint64_t> worker_stall_spins_{1ull << 22};
  mutable Spinlock lock_;  // serializes the RNG, arm/disarm and schedule state
  Xoshiro256 rng_;
  std::vector<PhaseState> schedule_;  // guarded by lock_
};

// A REAL hostile host thread: while kSharedMemScribbler is armed it invokes
// `target` with fresh random values, and the target (e.g.
// JobQueue::HostileScribble) turns each into a relaxed-atomic store of
// garbage into live shared state — concurrently with enclave threads and
// workers using that state. This is the adversary the snapshot-then-validate
// boundary (common/untrusted.h) is tested against: the enclave must stay
// crash-free and correct-or-fail-closed no matter where the stores land.
//
// Each scribble consumes one injector trigger, so windows are budgeted and
// counted like every other fault; with the point disarmed the thread idles.
class ScribblerThread {
 public:
  using ScribbleFn = std::function<void(uint64_t rnd)>;

  ScribblerThread(FaultInjector& faults, uint64_t seed, ScribbleFn target)
      : faults_(&faults), rng_(seed ^ 0x5c121bb1e5ull), target_(std::move(target)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ScribblerThread() { Stop(); }

  ScribblerThread(const ScribblerThread&) = delete;
  ScribblerThread& operator=(const ScribblerThread&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  uint64_t scribbles() const {
    return scribbles_.load(std::memory_order_relaxed);
  }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      if (!faults_->armed(Fault::kSharedMemScribbler)) {
        // Idle outside windows without burning a core.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (faults_->ShouldInject(Fault::kSharedMemScribbler)) {
        target_(rng_.Next());
        scribbles_.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  }

  FaultInjector* faults_;
  Xoshiro256 rng_;  // thread-private: only Loop() touches it
  ScribbleFn target_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> scribbles_{0};
  std::thread thread_;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_FAULT_INJECTOR_H_
