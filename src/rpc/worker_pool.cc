// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/rpc/worker_pool.h"

#include <chrono>

#include "src/common/spinlock.h"

namespace eleos::rpc {

WorkerPool::WorkerPool(JobQueue& queue, size_t num_workers,
                       sim::FaultInjector* faults,
                       telemetry::Registry* metrics,
                       uint64_t exec_lead_cycles, uint64_t exec_cycles)
    : queue_(queue),
      faults_(faults),
      trace_(metrics != nullptr ? &metrics->trace() : nullptr),
      spans_(metrics != nullptr ? &metrics->spans() : nullptr),
      exec_lead_cycles_(exec_lead_cycles),
      exec_cycles_(exec_cycles),
      cells_(metrics) {
  cells_.AddCounter("rpc.jobs_executed", jobs_executed_.cell());
  cells_.AddCounter("rpc.worker_deaths", worker_deaths_.cell());
  cells_.AddCounter("rpc.worker_respawns", worker_respawns_.cell());
  cells_.AddCounter("rpc.completions_dropped", completions_dropped_.cell());
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = static_cast<int>(i);
    worker->alive.store(true, std::memory_order_release);
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(w); });
    workers_.push_back(std::move(worker));
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) {
    watchdog_.join();  // joins first so it stops replacing threads under us
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

size_t WorkerPool::alive_workers() const {
  size_t n = 0;
  std::lock_guard guard(respawn_mutex_);
  for (const auto& w : workers_) {
    n += w->alive.load(std::memory_order_acquire);
  }
  return n;
}

void WorkerPool::WorkerLoop(Worker* self) {
  JobQueue::ClaimedJob jobs[kWorkerDrainMax];
  bool killed = false;
  while (!killed && !stop_.load(std::memory_order_acquire)) {
    if (faults_ != nullptr && faults_->ShouldInject(sim::Fault::kWorkerDeath)) {
      worker_deaths_.Add();
      break;  // the host silently killed this worker while idle
    }
    const size_t n = queue_.TryClaimBatch(jobs, kWorkerDrainMax);
    if (n == 0) {
      // Be polite on a shared machine: yield instead of hard-spinning. The
      // modeled poll latency is in CostModel, not wall-clock.
      std::this_thread::yield();
      continue;
    }
    // Record the whole run before executing anything, so the watchdog can
    // scrub every claim we might die holding.
    self->n_claims = n;
    for (size_t j = 0; j < n; ++j) {
      self->claims[j] = jobs[j].ticket;
    }
    for (size_t j = 0; j < n; ++j) {
      if (faults_ != nullptr &&
          faults_->ShouldInject(sim::Fault::kWorkerDeathWithClaim)) {
        // Killed between claiming and completing: claims[j..n) stay held.
        worker_deaths_.Add();
        killed = true;
        break;
      }
      if (faults_ != nullptr &&
          faults_->ShouldInject(sim::Fault::kWorkerStall)) {
        // Preempted (or maliciously delayed) while holding the claim. The
        // submitter's spin budget decides when to abandon us and fall back.
        const uint64_t spins = faults_->worker_stall_spins();
        for (uint64_t i = 0;
             i < spins && !stop_.load(std::memory_order_relaxed); ++i) {
          CpuRelax();
        }
      }
      if (jobs[j].fn == nullptr) {
        // TryClaimBatch's integrity validation guarantees a non-null fn;
        // belt-and-braces so a claim that slipped through a future bug can
        // never become an arbitrary-call primitive. Resolve the slot so the
        // submitter is not left spinning on our defensiveness.
        queue_.Complete(jobs[j].ticket);
        self->claims[j].slot = SIZE_MAX;
        continue;
      }
      jobs[j].fn(jobs[j].arg);
      if (spans_ != nullptr && jobs[j].span_id != 0) {
        // Emitted even when the completion is dropped below: the execution
        // really happened; only its result got lost.
        const uint64_t tsc = jobs[j].submit_tsc;
        const uint64_t start =
            tsc > exec_lead_cycles_ ? tsc - exec_lead_cycles_ : 0;
        spans_->EmitComplete("rpc.worker_exec",
                             telemetry::kWorkerTrackBase + self->index,
                             jobs[j].span_id, start, start + exec_cycles_);
      }
      if (faults_ != nullptr &&
          faults_->ShouldInject(sim::Fault::kCompletionDrop)) {
        // Ran, but the completion never lands. The claim entry stays
        // unresolved: if we die later in this run, the watchdog scrub is the
        // only thing that can ever recycle the slot.
        completions_dropped_.Add();
      } else {
        queue_.Complete(jobs[j].ticket);
        self->claims[j].slot = SIZE_MAX;  // resolved
      }
      jobs_executed_.Add();
    }
    if (!killed) {
      self->n_claims = 0;
    }
  }
  self->alive.store(false, std::memory_order_release);
}

void WorkerPool::WatchdogLoop() {
  // Claims collected from dead workers, still waiting for their slot to
  // become scrubbable (it stays kRunning until the submitter abandons it).
  std::vector<JobTicket> orphans;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (auto& w : workers_) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      if (!w->alive.load(std::memory_order_acquire)) {
        std::lock_guard guard(respawn_mutex_);
        if (w->thread.joinable()) {
          w->thread.join();
        }
        // Joined: safe to read the dead worker's claim log. Anything it died
        // holding becomes an orphan for the scrub pass below.
        for (size_t j = 0; j < w->n_claims; ++j) {
          if (w->claims[j].slot != SIZE_MAX) {
            orphans.push_back(w->claims[j]);
          }
        }
        w->n_claims = 0;
        w->alive.store(true, std::memory_order_release);
        w->thread = std::thread([this, worker = w.get()] { WorkerLoop(worker); });
        worker_respawns_.Add();
        if (trace_ != nullptr) {
          trace_->Record(telemetry::TraceKind::kRpcWorkerRespawn, 0,
                         worker_respawns_.value());
        }
      }
    }
    for (auto it = orphans.begin(); it != orphans.end();) {
      it = queue_.ScrubAbandoned(*it) ? orphans.erase(it) : it + 1;
    }
  }
}

}  // namespace eleos::rpc
