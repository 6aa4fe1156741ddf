// Copyright (c) Eleos reproduction authors. MIT license.
//
// Trusted-side RPC manager: Eleos's drop-in replacement for the SDK OCALL.
//
// `Call` delegates an untrusted function to a worker thread without exiting
// the enclave: no EEXIT/EENTER cycles, no TLB flush, and — with CAT enabled —
// the worker's I/O buffers only pollute its 25% LLC partition. `CallBatch`
// does the same for several functions under one doorbell, paying the
// rendezvous once. Both are synchronous, as in the paper: the enclave thread
// publishes its jobs and spin-polls until they complete. Long-running
// blocking calls (poll() and friends) still use the plain OCALL so a worker
// is not parked forever (paper §3.1).
//
// Two dispatch modes:
//  * kThreaded: jobs really flow through the untrusted JobQueue to a real
//    worker thread and the caller spin-polls — the genuine mechanism.
//  * kInline: the job runs on the calling thread. Identical virtual-cycle
//    accounting, fully deterministic; the mode the benchmark harnesses use.
//
// Hostile-host hardening (threaded mode): the workers and the queue are
// untrusted, so the enclave must never trust them for liveness. Submission
// and completion waits carry bounded spin budgets; on timeout the call falls
// back to the classic OCALL path — charging the real exit costs, so the
// degradation is visible in benchmarks — and the job context is heap-
// allocated and reference-counted so a worker that completes (or runs) late
// touches only memory that is still alive.
//
// Self-healing (threaded mode): timeouts also feed a per-manager HealthFsm
// acting as a circuit breaker. After 3 consecutive timeouts the breaker
// opens and calls short-circuit straight to the OCALL fallback — no spin
// budget burned at all — while every 64th short-circuited call first runs a
// no-op canary job with small fixed budgets (half-open) and closes the
// breaker the moment the untrusted side completes one. The spin budgets
// themselves are fixed. Burned spin budgets are charged as virtual cycles on
// the timeout paths, making the breaker's p99 win measurable in the
// benchmarks.
//
// Note the at-least-once caveat: an
// abandoned-but-claimed job may still execute on the worker after the
// fallback OCALL ran it, exactly as in real switchless-call systems; callers
// routing non-idempotent operations should use CallLong.

#ifndef ELEOS_SRC_RPC_RPC_MANAGER_H_
#define ELEOS_SRC_RPC_RPC_MANAGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/health.h"
#include "src/common/spinlock.h"
#include "src/common/untrusted.h"
#include "src/rpc/job_queue.h"
#include "src/rpc/worker_pool.h"
#include "src/sim/enclave.h"
#include "src/telemetry/telemetry.h"

namespace eleos::rpc {

// RAII helper: records the virtual-cycle delta of a scope into a latency
// histogram, once for each of the `calls` calls the scope covers (no-op
// without a bound CPU — functional-only calls).
class LatencyScope {
 public:
  LatencyScope(sim::CpuContext* cpu, telemetry::Histogram* histo, size_t calls)
      : cpu_(cpu),
        histo_(histo),
        calls_(calls),
        t0_(cpu != nullptr ? cpu->clock.now() : 0) {}
  ~LatencyScope() {
    if (cpu_ != nullptr) {
      const uint64_t delta = cpu_->clock.now() - t0_;
      for (size_t i = 0; i < calls_; ++i) {
        histo_->Record(delta);
      }
    }
  }
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  sim::CpuContext* cpu_;
  telemetry::Histogram* histo_;
  size_t calls_;
  uint64_t t0_;
};

class RpcManager {
 public:
  enum class Mode { kInline, kThreaded };

  struct Options {
    Mode mode = Mode::kInline;
    bool use_cat = true;       // partition the LLC 75% enclave / 25% workers
    size_t workers = 1;        // threaded mode: pool size
    size_t queue_capacity = 64;
    // Spin budgets before a threaded call gives up on the untrusted side and
    // falls back to the OCALL path. The defaults are far beyond any healthy
    // completion latency (hundreds of ms of wall-clock spinning) so benign
    // runs never fall back, while a dead/stalled worker cannot wedge the
    // enclave forever. Fault tests shrink them to exercise the fallback.
    uint64_t submit_spin_budget = 1ull << 26;
    uint64_t await_spin_budget = 1ull << 28;
    // Circuit breaker over the exit-less path (threaded mode): after 3
    // consecutive submit/await timeouts the manager stops paying spin budgets
    // at all and routes calls straight to the OCALL fallback (breaker open).
    // Every 64th short-circuited call first submits a no-op canary (breaker
    // half-open); a completed canary closes the breaker again.
    bool breaker_enabled = true;
  };

  RpcManager(sim::Enclave& enclave, Options options);
  ~RpcManager();

  RpcManager(const RpcManager&) = delete;
  RpcManager& operator=(const RpcManager&) = delete;

  // Exit-less call. `io_bytes` is the I/O buffer footprint the untrusted side
  // touches (pollutes the worker's LLC partition). Returns fn's result.
  template <typename Fn>
  std::invoke_result_t<Fn> Call(sim::CpuContext* cpu, size_t io_bytes, Fn&& fn) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      // A void fn rides the dispatch as one that returns 0. The adapter owns
      // its copy of fn, as a job must: it may still run after we return.
      auto returns_zero = [f = std::forward<Fn>(fn)]() mutable {
        f();
        return 0;
      };
      int ignored = 0;
      Dispatch(cpu, "rpc.call", io_bytes, &returns_zero, &ignored, 1);
    } else {
      std::invoke_result_t<Fn> result{};
      Dispatch(cpu, "rpc.call", io_bytes, &fn, &result, 1);
      return result;
    }
  }

  // Batched exit-less call: one job per element of `fns`, charged as a
  // single doorbell — each call still pays its enqueue and its syscall, but
  // the rendezvous and the result read-back are paid once per batch (see
  // ChargeSubmit and the rpc.batch_size histogram). Returns the results in
  // order. Every element gets Call's breaker admission, spin budgets and
  // OCALL fallback, so the at-least-once caveat applies to each: route only
  // idempotent operations through a batch.
  template <typename Fn>
  std::vector<std::invoke_result_t<Fn&>> CallBatch(sim::CpuContext* cpu,
                                                   size_t io_bytes_each,
                                                   std::vector<Fn>& fns) {
    std::vector<std::invoke_result_t<Fn&>> results(fns.size());
    if (!fns.empty()) {
      Dispatch(cpu, "rpc.call_batch", io_bytes_each, fns.data(),
               results.data(), fns.size());
    }
    return results;
  }

  // Long-running blocking calls fall back to the classic OCALL.
  template <typename Fn>
  decltype(auto) CallLong(sim::CpuContext& cpu, size_t io_bytes, Fn&& fn) {
    return enclave_->Ocall(cpu, io_bytes, std::forward<Fn>(fn));
  }

  // The class of service enclave threads should run with under this manager.
  int enclave_cos() const {
    return use_cat_ ? sim::kCosEnclave : sim::kCosShared;
  }
  // The class of service the untrusted workers fill the LLC with.
  int worker_cos() const {
    return use_cat_ ? sim::kCosRpcWorker : sim::kCosShared;
  }

  uint64_t calls() const { return calls_.value(); }
  sim::Enclave& enclave() { return *enclave_; }

  // Hostile-host observability (threaded mode; all zero in healthy runs).
  uint64_t fallback_ocalls() const { return fallback_ocalls_.value(); }
  uint64_t submit_timeouts() const { return submit_timeouts_.value(); }
  uint64_t await_timeouts() const { return await_timeouts_.value(); }
  JobQueue* queue() { return queue_.get(); }
  WorkerPool* pool() { return pool_.get(); }

  // Self-healing observability.
  HealthState breaker_state() const { return breaker_.state(); }
  uint64_t breaker_opens() const { return breaker_opens_.value(); }
  uint64_t breaker_short_circuits() const {
    return breaker_short_circuits_.value();
  }
  uint64_t breaker_probes() const { return breaker_.probes(); }

 private:
  // Type-erased, reference-counted job context. Two owners: the submitting
  // enclave thread and the (potential) worker execution. Whoever drops the
  // last reference frees it, so a worker running an abandoned job after the
  // caller moved on never touches dead stack frames.
  struct JobBase {
    std::atomic<int> refs{2};
    // Enclave-private execution evidence the host cannot forge (the slot
    // state word CAN be forged): `ran` set after Run() is the proof a kDone
    // completion is genuine. `started` is defense-in-depth run-once — the
    // queue's claim-once token already guarantees at most one worker ever
    // receives this pointer per publication (JobQueue::TryClaimBatch), which
    // is also what makes the refcount sound: no replayed claimant can hold
    // the raw pointer without a reference behind it.
    std::atomic<bool> started{false};
    std::atomic<bool> ran{false};
    virtual void Run() = 0;
    virtual ~JobBase() = default;
    void Unref() {
      if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete this;
      }
    }
  };

  template <typename F, typename R>
  struct JobImpl : JobBase {
    F fn;
    R result{};
    explicit JobImpl(F f) : fn(std::move(f)) {}
    void Run() override { result = fn(); }
  };

  static void Trampoline(void* arg) {
    auto* job = static_cast<JobBase*>(arg);
    if (job->started.exchange(true, std::memory_order_acq_rel)) {
      // Unreachable by construction: JobQueue's claim-once token admits at
      // most one claimant per publication, and each JobBase is published
      // exactly once. Kept as defense-in-depth so a future queue bug could
      // at worst double-claim a LIVE job (the winner holds the worker
      // reference until it runs), never touch a freed one.
      return;
    }
    job->Run();
    job->ran.store(true, std::memory_order_release);
    job->Unref();
  }

  // Why a call took the OCALL fallback (trace arg0 / counter selection).
  enum class FallbackWhy {
    kAwaitTimeout = 0,
    kSubmitTimeout = 1,
    kBreakerOpen = 2,
    kHostileInput = 3,  // scribbled slot or forged completion (boundary.*)
  };

  // Charges the submit-side cost of `batch` calls published under one
  // doorbell and records the batch size. batch == 1 is the plain Call shape.
  void ChargeSubmit(sim::CpuContext* cpu, size_t io_bytes, size_t batch);
  void CountFallback(sim::CpuContext* cpu, FallbackWhy why);

  // Breaker admission for one doorbell. True: proceed exit-less (the breaker
  // is closed, or a half-open canary just completed and closed it). False:
  // short-circuit every call to the OCALL fallback with zero spin cost.
  bool AdmitExitless(sim::CpuContext* cpu);
  // Submits + awaits a no-op canary job with the canary spin budgets.
  bool RunCanary(sim::CpuContext* cpu);
  // Charges `spins` burned polling spins as virtual cycles (timeout paths
  // only — see CostModel::rpc_spin_cycles).
  void ChargeSpins(sim::CpuContext* cpu, uint64_t spins);
  // Timeout bookkeeping shared by both spin sites: charges the burned spin
  // budget as virtual cycles and feeds the breaker (possibly tripping it
  // open).
  void OnSpinTimeout(sim::CpuContext* cpu, bool submit_side,
                     uint64_t budget_burned);

  // Parks a job whose outcome was anything but a genuine completion. The
  // submitter's reference transfers to the ledger: a worker may still hold
  // the other reference (a "revoked" job can have been claimed under forged
  // state right as the revoke raced it), so dropping ours on a "never
  // claimed" guess risks use-after-free, and dropping it twice risks
  // double-free. The ledger drains opportunistically — refs==1 means the one
  // possible worker execution (claim-once token, see JobQueue) already ran
  // and unref'd, so nothing can ever reach the job again — and fully in the
  // destructor after the pool has joined. The opportunistic sweep is
  // amortized to a bounded window per call so a sustained-hostility storm
  // (every await failing) stays O(1) per fallback instead of O(ledger).
  void QuarantineJob(JobBase* job);
  // Boundary-violation bookkeeping: counts the reject (local + registry),
  // records a kBoundaryReject trace event, and feeds the breaker so a host
  // that only attacks (never completes) still trips the short-circuit.
  void OnHostileBoundary(sim::CpuContext* cpu, BoundarySite site);
  // Shared post-await failure dispatch: classifies `wait` into a timeout
  // (revoked/abandoned → OnSpinTimeout) or a boundary violation (kHostile /
  // forged kDone → OnHostileBoundary) and counts the fallback accordingly.
  void NoteAwaitFailure(sim::CpuContext* cpu, JobQueue::WaitResult wait);

  // The one dispatch behind Call and CallBatch: runs fns[0..n) as a single
  // doorbell and stores fns[i]'s result in results[i]. In threaded mode the
  // calls go through the breaker once, then in runs: the rest of a batch is
  // published under one TrySubmitBatch (a single call, or an element the
  // full ring refused, under the bounded TrySubmit) and the run is awaited
  // in order, freeing its slots, before the next run is published — so a
  // batch larger than the free ring never waits on its own slots.
  template <typename Fn, typename R>
  void Dispatch(sim::CpuContext* cpu, const char* span_name, size_t io_bytes,
                Fn* fns, R* results, size_t n) {
    telemetry::SpanTracer& spans = enclave_->machine().metrics().spans();
    // The causal root of everything the calls do: the workers' executions,
    // fallback OCALLs, or a breaker short-circuit all become children.
    sim::SpanScope span(&spans, cpu, span_name);
    // Submit→complete latency of each call, including any fallback OCALL.
    LatencyScope latency(cpu, call_cycles_, n);
    ChargeSubmit(cpu, io_bytes * n, n);
    if (mode_ != Mode::kThreaded) {
      for (size_t i = 0; i < n; ++i) {
        results[i] = fns[i]();
      }
      return;
    }
    if (!AdmitExitless(cpu)) {
      sim::SpanScope denied(&spans, cpu, "rpc.breaker_short_circuit");
      for (size_t i = 0; i < n; ++i) {
        CountFallback(cpu, FallbackWhy::kBreakerOpen);
        results[i] = Fallback(cpu, io_bytes, fns[i]);
      }
      return;
    }
    // Publication scratch, 32 bytes per call: on the stack up to ~30 calls,
    // so a call's only heap allocation is its job.
    std::array<std::byte, 1024> stack;
    std::pmr::monotonic_buffer_resource arena(stack.data(), stack.size());
    std::pmr::vector<void*> jobs(n, &arena);
    std::pmr::vector<JobTicket> tickets(n, &arena);
    std::pmr::vector<UntrustedFn> trampolines(n, &Trampoline, &arena);
    using Job = JobImpl<std::remove_cv_t<Fn>, R>;
    for (size_t i = 0; i < n; ++i) {
      jobs[i] = new Job(fns[i]);  // a copy: fns[i] serves the fallback path
    }
    // Propagate the causal context through the untrusted slots so the
    // workers can emit their executions as child spans of this one.
    const uint64_t span_id = spans.CurrentSpanId();
    const uint64_t submit_tsc =
        span_id != 0 && cpu != nullptr ? cpu->clock.now() : 0;
    for (size_t i = 0; i < n;) {
      size_t run = n - i > 1 ? queue_->TrySubmitBatch(
                                   &trampolines[i], &jobs[i], &tickets[i],
                                   n - i, span_id, submit_tsc)
                             : 0;
      if (run == 0) {
        if (!queue_->TrySubmit(&Trampoline, jobs[i], &tickets[i],
                               submit_spin_budget_, span_id, submit_tsc)) {
          auto* job = static_cast<Job*>(jobs[i]);
          job->Unref();
          job->Unref();  // never enqueued: the worker reference dies with ours
          sim::SpanScope fallback(&spans, cpu, "rpc.fallback_ocall");
          OnSpinTimeout(cpu, /*submit_side=*/true, submit_spin_budget_);
          CountFallback(cpu, FallbackWhy::kSubmitTimeout);
          results[i] = Fallback(cpu, io_bytes, fns[i]);
          ++i;
          continue;
        }
        run = 1;
      }
      // Await the run in order; each release frees a slot for the next run.
      for (const size_t end = i + run; i < end; ++i) {
        auto* job = static_cast<Job*>(jobs[i]);
        const JobQueue::WaitResult wait =
            queue_->AwaitAndRelease(tickets[i], await_spin_budget_);
        if (wait == JobQueue::WaitResult::kCompleted &&
            job->ran.load(std::memory_order_acquire)) {
          // Resets the failure streak; only a canary closes an open breaker.
          breaker_.RecordSuccess();
          results[i] = std::move(job->result);
          job->Unref();
          continue;
        }
        // Timeout (revoked/abandoned), a scribbled slot (kHostile), or a
        // forged kDone whose job never actually ran: resolve through the
        // OCALL fallback, which re-runs fns[i] and never touches the job's
        // (possibly racing) result. The job may still run late on a worker —
        // and a "revoked" job may secretly have been claimed, since kReady
        // can be forged — so our reference parks in the quarantine ledger
        // instead of being dropped on a never-claimed assumption.
        QuarantineJob(job);
        sim::SpanScope fallback(&spans, cpu, "rpc.fallback_ocall");
        NoteAwaitFailure(cpu, wait);
        results[i] = Fallback(cpu, io_bytes, fns[i]);
      }
    }
  }

  // The degraded path: a real OCALL (enclave exit) when the exit-less
  // machinery is unavailable. Charges genuine exit costs so hostile-host
  // pressure shows up in the virtual-cycle numbers.
  template <typename Fn>
  std::invoke_result_t<Fn&> Fallback(sim::CpuContext* cpu, size_t io_bytes,
                                     Fn& fn) {
    if (cpu != nullptr && cpu->enclave == enclave_) {
      return enclave_->Ocall(*cpu, io_bytes, fn);
    }
    // Functional-only call (no accounting context): just run it untrusted.
    return fn();
  }

  sim::Enclave* enclave_;
  Mode mode_;
  bool use_cat_;
  uint64_t submit_spin_budget_;
  uint64_t await_spin_budget_;
  // The canary's budgets: small constants, clamped to the configured budgets
  // so a canary never spins longer than a call would.
  uint64_t canary_submit_spins_;
  uint64_t canary_await_spins_;
  std::unique_ptr<JobQueue> queue_;
  std::unique_ptr<WorkerPool> pool_;
  HealthFsm breaker_;
  telemetry::Counter calls_;
  telemetry::Counter fallback_ocalls_;
  telemetry::Counter submit_timeouts_;
  telemetry::Counter await_timeouts_;
  telemetry::Counter breaker_opens_;
  telemetry::Counter breaker_short_circuits_;
  // Untrusted-boundary hardening (DESIGN.md §12): kDone published for a job
  // that never ran, and scribbled/forged outcomes rejected at await.
  telemetry::Counter forged_completions_;
  telemetry::Counter hostile_rejects_;
  mutable Spinlock quarantine_lock_;
  std::vector<JobBase*> quarantine_;  // guarded by quarantine_lock_
  size_t quarantine_cursor_ = 0;      // amortized-drain scan position (same)
  // quarantine_.size() (rpc.quarantined_jobs): written under
  // quarantine_lock_, read lock-free.
  std::atomic<size_t> quarantined_{0};
  telemetry::Counter* rejected_inputs_metric_;  // boundary.rejected_inputs
  // Telemetry (resolved from the machine's registry at construction).
  telemetry::Histogram* call_cycles_;
  telemetry::Histogram* batch_size_;  // calls per doorbell (1 for plain Call)
  size_t slo_fallback_rule_ = 0;
  size_t slo_duty_rule_ = 0;
  size_t flight_health_source_ = 0;
  // Lists the counters and levels above with the registry (rpc.*); declared
  // last so it unlists before any of them dies.
  telemetry::CellList cells_;
};

}  // namespace eleos::rpc

#endif  // ELEOS_SRC_RPC_RPC_MANAGER_H_
