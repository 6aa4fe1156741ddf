// Copyright (c) Eleos reproduction authors. MIT license.
//
// Untrusted worker thread pool executing RPC jobs (paper §3.1).
//
// Workers are real OS threads polling the shared JobQueue. They perform no
// virtual-cycle accounting themselves (their cost is charged on the
// submitting enclave thread by RpcManager; their LLC pollution is modeled
// there too) — this keeps the shared simulation models single-writer while
// the *mechanism* (polling, claiming, completion) is fully real. Workers
// drain runs of ready slots in one claim pass (TryClaimBatch), so a batch
// published under a single doorbell is picked up without per-job rescans.
//
// The workers are untrusted: the host may stall them, kill them (idle or
// mid-claim), or swallow their completions (driven by sim::FaultInjector). A
// watchdog thread detects workers that exited outside shutdown and respawns
// them, so a hostile host can delay service but not permanently shrink the
// pool. The watchdog also scrubs claims a worker died holding: once the
// submitter abandons such a slot nobody is left to recycle it, so the
// watchdog hands the generation-checked ticket back to the queue
// (JobQueue::ScrubAbandoned) — otherwise each killed-in-flight claim would
// permanently shrink queue capacity.

#ifndef ELEOS_SRC_RPC_WORKER_POOL_H_
#define ELEOS_SRC_RPC_WORKER_POOL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/rpc/job_queue.h"
#include "src/sim/fault_injector.h"
#include "src/telemetry/telemetry.h"

namespace eleos::rpc {

// Most ready slots a worker drains per claim pass.
inline constexpr size_t kWorkerDrainMax = 8;

class WorkerPool {
 public:
  // `metrics` (optional) lists the pool's counters, receives its respawn
  // trace events, and lets workers emit their execution as child spans of
  // the submitting enclave call. Workers have no virtual clock, so the span's
  // window is synthesized from the slot's submit_tsc: it starts
  // `exec_lead_cycles` before it and lasts `exec_cycles` — the RpcManager
  // passes values that place it inside the parent call's interval (the
  // modeled syscall portion of ChargeSubmit's enqueue+poll+syscall+dequeue).
  WorkerPool(JobQueue& queue, size_t num_workers,
             sim::FaultInjector* faults = nullptr,
             telemetry::Registry* metrics = nullptr,
             uint64_t exec_lead_cycles = 0, uint64_t exec_cycles = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t size() const { return workers_.size(); }
  uint64_t jobs_executed() const { return jobs_executed_.value(); }

  // Hostile-host observability.
  uint64_t worker_deaths() const { return worker_deaths_.value(); }
  uint64_t worker_respawns() const { return worker_respawns_.value(); }
  uint64_t completions_dropped() const { return completions_dropped_.value(); }
  size_t alive_workers() const;

 private:
  struct Worker {
    std::thread thread;
    std::atomic<bool> alive{false};
    int index = 0;  // worker track = telemetry::kWorkerTrackBase + index
    // Claims from the current drain pass that have not been completed yet.
    // Written only by the worker thread; the watchdog reads them only after
    // joining the dead thread (slot == SIZE_MAX marks a resolved entry), so
    // plain fields suffice — the join is the synchronization point.
    size_t n_claims = 0;
    JobTicket claims[kWorkerDrainMax];
  };

  void WorkerLoop(Worker* self);
  void WatchdogLoop();

  JobQueue& queue_;
  sim::FaultInjector* faults_;
  telemetry::TraceRing* trace_;  // optional: respawns are trace-worthy
  telemetry::SpanTracer* spans_;  // optional: cross-boundary child spans
  uint64_t exec_lead_cycles_;
  uint64_t exec_cycles_;
  std::atomic<bool> stop_{false};
  Counter jobs_executed_;
  Counter worker_deaths_;
  Counter worker_respawns_;
  Counter completions_dropped_;
  telemetry::CellList cells_;  // lists the counters above
  mutable std::mutex respawn_mutex_;  // guards the thread objects, not the loop
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread watchdog_;
};

}  // namespace eleos::rpc

#endif  // ELEOS_SRC_RPC_WORKER_POOL_H_
