// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/rpc/rpc_manager.h"

#include <algorithm>

namespace eleos::rpc {
namespace {

void CanaryNop(void*) {}

// Circuit breaker (DESIGN.md §7): consecutive timeouts that open it, and
// short-circuited calls per canary probe while it is open.
constexpr uint32_t kBreakerFailureThreshold = 3;
constexpr uint64_t kBreakerProbeInterval = 64;
// The canary's spin budgets. A still-dead host costs one short bounded spin
// per probe instead of a full-budget burn: a canary at the call budgets would
// make each probe cost about as much as a timed-out call.
constexpr uint64_t kCanarySubmitSpins = 1ull << 8;
constexpr uint64_t kCanaryAwaitSpins = 1ull << 10;

// SLO watchdog thresholds (DESIGN.md §13). The rules are registered
// unconditionally at construction: they are inert until the machine's
// timeline sampler is enabled, and registering either way keeps metric
// registration — and thus snapshot bytes — identical whether or not sampling
// is on. Violations emit kSloViolation traces and slo.violations counters;
// they never feed the breaker itself (the breaker already reacts per call,
// and fallback storms opening it would feed back into this very rule).
constexpr double kSloFallbackRatePerMcycle = 50.0;  // rpc.fallback_ocalls
constexpr double kSloBreakerOpenDuty = 0.5;  // breaker_state != 0 duty
constexpr size_t kSloDutyWindows = 8;        // duty-cycle lookback

}  // namespace

RpcManager::RpcManager(sim::Enclave& enclave, Options options)
    : enclave_(&enclave),
      mode_(options.mode),
      use_cat_(options.use_cat),
      submit_spin_budget_(options.submit_spin_budget),
      await_spin_budget_(options.await_spin_budget),
      canary_submit_spins_(std::max<uint64_t>(
          1, std::min(kCanarySubmitSpins, options.submit_spin_budget))),
      canary_await_spins_(std::max<uint64_t>(
          1, std::min(kCanaryAwaitSpins, options.await_spin_budget))),
      breaker_(HealthFsm::Options{
          // threshold 0 disables the FSM: Admit() always allows.
          options.breaker_enabled ? kBreakerFailureThreshold : 0,
          kBreakerProbeInterval}),
      rejected_inputs_metric_(enclave.machine().metrics().GetCounter(
          "boundary.rejected_inputs")),
      call_cycles_(enclave.machine().metrics().GetHistogram("rpc.call_cycles")),
      batch_size_(enclave.machine().metrics().GetHistogram("rpc.batch_size")),
      cells_(&enclave.machine().metrics()) {
  telemetry::Registry& metrics = enclave.machine().metrics();
  if (use_cat_) {
    enclave_->machine().llc().EnablePartitioning(0.75);
  }
  if (mode_ == Mode::kThreaded) {
    sim::FaultInjector* faults = &enclave_->machine().fault_injector();
    queue_ = std::make_unique<JobQueue>(options.queue_capacity, faults,
                                        &metrics);
    // Workers synthesize their execution spans from the slot's submit_tsc:
    // the modeled execution window is `syscall_cycles` long and ends
    // `rpc_dequeue_cycles` before the submitter reads the result back (see
    // ChargeSubmit's enqueue+poll+syscall+dequeue charge).
    const sim::CostModel& c = enclave_->machine().costs();
    pool_ = std::make_unique<WorkerPool>(
        *queue_, options.workers, faults, &metrics,
        c.syscall_cycles + c.rpc_dequeue_cycles, c.syscall_cycles);
  } else {
    // No queue, but its counters still export (at zero): every snapshot
    // carries the whole rpc.* and boundary.* family, and validate_bench.py
    // keys on their presence.
    for (const JobQueue::Metric& m : JobQueue::Metrics()) {
      metrics.GetCounter(m.first);
    }
  }
  cells_.AddCounter("rpc.calls", calls_.cell());
  cells_.AddCounter("rpc.fallback_ocalls", fallback_ocalls_.cell());
  cells_.AddCounter("rpc.submit_timeouts", submit_timeouts_.cell());
  cells_.AddCounter("rpc.await_timeouts", await_timeouts_.cell());
  cells_.AddCounter("rpc.breaker_opens", breaker_opens_.cell());
  cells_.AddCounter("rpc.breaker_short_circuits",
                    breaker_short_circuits_.cell());
  cells_.AddCounter("rpc.breaker_probes", breaker_.probes_cell());
  cells_.AddCounter("rpc.forged_completions", forged_completions_.cell());
  cells_.AddCounter("rpc.hostile_rejects", hostile_rejects_.cell());
  cells_.AddGauge("rpc.breaker_state", breaker_.state_cell());
  cells_.AddGauge("rpc.quarantined_jobs", quarantined_);
  // SLO watchdog rules + flight-recorder health source. Both registries are
  // owned by the machine and outlive this manager; the destructor
  // unregisters.
  {
    telemetry::SloRule rule;
    rule.name = "rpc.fallback_rate";
    rule.kind = telemetry::SloRule::Kind::kCounterRate;
    rule.metric = "rpc.fallback_ocalls";
    rule.threshold = kSloFallbackRatePerMcycle;
    slo_fallback_rule_ = metrics.timeline().AddRule(rule);
  }
  {
    telemetry::SloRule rule;
    rule.name = "rpc.breaker_duty";
    rule.kind = telemetry::SloRule::Kind::kGaugeDuty;
    rule.metric = "rpc.breaker_state";
    rule.threshold = kSloBreakerOpenDuty;
    rule.duty_windows = kSloDutyWindows;
    slo_duty_rule_ = metrics.timeline().AddRule(rule);
  }
  flight_health_source_ = metrics.flight().AddHealthSource(
      "rpc.breaker",
      [this] { return std::string(HealthStateName(breaker_.state())); });
}

RpcManager::~RpcManager() {
  enclave_->machine().metrics().timeline().RemoveRule(slo_fallback_rule_);
  enclave_->machine().metrics().timeline().RemoveRule(slo_duty_rule_);
  enclave_->machine().metrics().flight().RemoveHealthSource(
      flight_health_source_);
  pool_.reset();  // join workers before the queue dies
  // Workers are joined, so every quarantined job is quiescent. refs==2 means
  // the trampoline never ran (never claimed, or its claimant died first):
  // both references are now ours to drop. refs==1 means the worker already
  // dropped its reference; one drop frees it.
  std::vector<JobBase*> leftover;
  {
    std::lock_guard guard(quarantine_lock_);
    leftover.swap(quarantine_);
  }
  for (JobBase* job : leftover) {
    if (job->refs.load(std::memory_order_acquire) == 2) {
      job->Unref();
    }
    job->Unref();
  }
  if (use_cat_) {
    enclave_->machine().llc().DisablePartitioning();
  }
}

void RpcManager::ChargeSubmit(sim::CpuContext* cpu, size_t io_bytes,
                              size_t batch) {
  calls_.Add(batch);
  batch_size_->Record(batch);
  if (cpu == nullptr) {
    return;  // functional-only call: no accounting (keeps models single-writer)
  }
  sim::Machine& m = enclave_->machine();
  const sim::CostModel& c = m.costs();
  // Enqueue, wait for a polling worker to pick it up and run the syscall,
  // read the result back. No exit: no TLB flush, no enclave-state spill.
  // Batched submission publishes the whole run under one doorbell: each call
  // still pays its enqueue and its syscall, but the poll-latency rendezvous
  // and the result read-back pass are paid once per batch — that
  // amortization is the entire batching win (batch == 1 is the plain shape).
  const uint64_t cycles =
      (c.rpc_enqueue_cycles + c.syscall_cycles) * batch +
      c.rpc_poll_latency_cycles + c.rpc_dequeue_cycles;
  m.ChargeCost(cpu, telemetry::CostCategory::kRpc, cycles);
  // The worker's kernel/I/O buffers pollute the LLC — only within the
  // worker's CAT partition when partitioning is on.
  const int worker_cos = use_cat_ ? sim::kCosRpcWorker : sim::kCosShared;
  m.PolluteCache(io_bytes + c.syscall_kernel_footprint * batch, worker_cos);
}

void RpcManager::CountFallback(sim::CpuContext* cpu, FallbackWhy why) {
  fallback_ocalls_.Add();
  switch (why) {
    case FallbackWhy::kSubmitTimeout:
      submit_timeouts_.Add();
      break;
    case FallbackWhy::kAwaitTimeout:
      await_timeouts_.Add();
      break;
    case FallbackWhy::kBreakerOpen:
      break;  // already counted in breaker_short_circuits_
    case FallbackWhy::kHostileInput:
      break;  // counted in hostile_rejects_ / forged_completions_
  }
  enclave_->machine().metrics().trace().Record(
      telemetry::TraceKind::kRpcFallbackOcall,
      cpu != nullptr ? cpu->clock.now() : 0, static_cast<uint64_t>(why));
}

bool RpcManager::AdmitExitless(sim::CpuContext* cpu) {
  switch (breaker_.Admit()) {
    case HealthFsm::Gate::kAllow:
      return true;
    case HealthFsm::Gate::kDeny:
      breaker_short_circuits_.Add();
      return false;
    case HealthFsm::Gate::kProbe:
      if (RunCanary(cpu)) {
        if (breaker_.RecordSuccess()) {
          enclave_->machine().metrics().trace().Record(
              telemetry::TraceKind::kRpcBreakerClose,
              cpu != nullptr ? cpu->clock.now() : 0, breaker_.probes());
        }
        return true;  // the exit-less machinery is back; run the real call
      }
      breaker_.RecordFailure();  // half-open -> open, no fresh trip
      return false;
  }
  return true;
}

bool RpcManager::RunCanary(sim::CpuContext* cpu) {
  // The canary is deliberately tiny: small budgets, no payload. Its burned
  // spins are still charged.
  JobTicket ticket;
  if (!queue_->TrySubmit(&CanaryNop, nullptr, &ticket,
                         canary_submit_spins_)) {
    ChargeSpins(cpu, canary_submit_spins_);
    return false;
  }
  const JobQueue::WaitResult wait =
      queue_->AwaitAndRelease(ticket, canary_await_spins_);
  if (wait != JobQueue::WaitResult::kCompleted) {
    ChargeSpins(cpu, canary_await_spins_);
    return false;
  }
  return true;
}

void RpcManager::ChargeSpins(sim::CpuContext* cpu, uint64_t spins) {
  const uint64_t cycles = spins * enclave_->machine().costs().rpc_spin_cycles;
  enclave_->machine().ChargeCost(cpu, telemetry::CostCategory::kRpc, cycles);
}

void RpcManager::OnSpinTimeout(sim::CpuContext* cpu, bool submit_side,
                               uint64_t budget_burned) {
  // The full budget was burned deterministically (that is what a timeout
  // means), so — unlike a successful wait, whose length is wall-clock
  // scheduling noise — it can be charged as virtual cycles without breaking
  // determinism. This is what makes hostile spin cost visible in p99.
  ChargeSpins(cpu, budget_burned);
  if (breaker_.RecordFailure()) {
    breaker_opens_.Add();
    enclave_->machine().metrics().trace().Record(
        telemetry::TraceKind::kRpcBreakerOpen,
        cpu != nullptr ? cpu->clock.now() : 0, submit_side ? 1 : 0,
        breaker_opens_.value());
  }
}

void RpcManager::QuarantineJob(JobBase* job) {
  // A bounded number of ledger entries inspected per call keeps the hostile
  // path O(1): a sustained-hostility storm (every await failing) must not
  // turn each fallback into an O(ledger) sweep under the spinlock — that
  // would make the very cycle numbers the hostile benches measure quadratic
  // in the attack length. Each call retires at least as many drainable
  // entries on average as it adds, so the ledger stays bounded by the
  // (finite) population of still-referenced jobs plus a constant.
  constexpr size_t kDrainWindow = 8;
  std::lock_guard guard(quarantine_lock_);
  quarantine_.push_back(job);
  // Opportunistic drain: an entry at refs==1 lost its worker reference (the
  // trampoline ran and unref'd). The queue's claim-once token guarantees at
  // most one worker ever held this job, so refs==1 proves nothing can reach
  // it again; freeing here is race-free. refs==2 entries stay parked until
  // a late run or destruction.
  const size_t scans = std::min(quarantine_.size(), kDrainWindow);
  for (size_t k = 0; k < scans; ++k) {
    if (quarantine_cursor_ >= quarantine_.size()) {
      quarantine_cursor_ = 0;
    }
    JobBase* j = quarantine_[quarantine_cursor_];
    if (j->refs.load(std::memory_order_acquire) == 1) {
      quarantine_[quarantine_cursor_] = quarantine_.back();
      quarantine_.pop_back();
      j->Unref();
    } else {
      ++quarantine_cursor_;
    }
  }
  quarantined_.store(quarantine_.size(), std::memory_order_relaxed);
}

void RpcManager::OnHostileBoundary(sim::CpuContext* cpu, BoundarySite site) {
  hostile_rejects_.Add();
  rejected_inputs_metric_->Add(1);
  enclave_->machine().metrics().trace().Record(
      telemetry::TraceKind::kBoundaryReject,
      cpu != nullptr ? cpu->clock.now() : 0, static_cast<uint64_t>(site));
  // A host that only attacks never completes anything, so boundary rejects
  // must feed the breaker like timeouts do: sustained hostility trips the
  // short-circuit and stops paying spin budgets to an adversary.
  if (breaker_.RecordFailure()) {
    breaker_opens_.Add();
    enclave_->machine().metrics().trace().Record(
        telemetry::TraceKind::kRpcBreakerOpen,
        cpu != nullptr ? cpu->clock.now() : 0, /*arg0=*/2,
        breaker_opens_.value());
  }
}

void RpcManager::NoteAwaitFailure(sim::CpuContext* cpu,
                                  JobQueue::WaitResult wait) {
  if (wait == JobQueue::WaitResult::kHostile) {
    OnHostileBoundary(cpu, BoundarySite::kRpcSlotScribbled);
    CountFallback(cpu, FallbackWhy::kHostileInput);
    return;
  }
  if (wait == JobQueue::WaitResult::kCompleted) {
    // The slot said kDone but the job's private `ran` flag is false: the
    // completion was forged. The state word lives in untrusted memory; the
    // flag does not — the flag wins.
    forged_completions_.Add();
    OnHostileBoundary(cpu, BoundarySite::kRpcForgedCompletion);
    CountFallback(cpu, FallbackWhy::kHostileInput);
    return;
  }
  // kRevoked / kAbandoned: a plain liveness timeout.
  OnSpinTimeout(cpu, /*submit_side=*/false, await_spin_budget_);
  CountFallback(cpu, FallbackWhy::kAwaitTimeout);
}

}  // namespace eleos::rpc
