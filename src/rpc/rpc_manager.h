// Copyright (c) Eleos reproduction authors. MIT license.
//
// Trusted-side RPC manager: Eleos's drop-in replacement for the SDK OCALL.
//
// `Call` delegates an untrusted function to a worker thread without exiting
// the enclave: no EEXIT/EENTER cycles, no TLB flush, and — with CAT enabled —
// the worker's I/O buffers only pollute its 25% LLC partition. Long-running
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
// acting as a circuit breaker. After N consecutive timeouts the breaker
// opens and calls short-circuit straight to the OCALL fallback — no spin
// budget burned at all — while periodic no-op canary jobs probe the queue
// (half-open) and close the breaker the moment the untrusted side completes
// one. Orthogonally, the spin budgets themselves adapt: multiplicative
// shrink on timeout, additive recovery on success (AIMD), so a host that is
// slow-but-alive settles at a budget matching its actual latency. Burned
// spin budgets are charged as virtual cycles on the timeout paths, making
// the breaker's p99 win measurable in the benchmarks.
//
// Note the at-least-once caveat: an
// abandoned-but-claimed job may still execute on the worker after the
// fallback OCALL ran it, exactly as in real switchless-call systems; callers
// routing non-idempotent operations should use CallLong.

#ifndef ELEOS_SRC_RPC_RPC_MANAGER_H_
#define ELEOS_SRC_RPC_RPC_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/health.h"
#include "src/common/spinlock.h"
#include "src/common/stats.h"
#include "src/common/untrusted.h"
#include "src/rpc/job_queue.h"
#include "src/rpc/worker_pool.h"
#include "src/sim/enclave.h"
#include "src/telemetry/telemetry.h"

namespace eleos::rpc {

// RAII helper: records the virtual-cycle delta of a scope into a latency
// histogram (no-op without a bound CPU — functional-only calls).
class LatencyScope {
 public:
  LatencyScope(sim::CpuContext* cpu, telemetry::Histogram* histo)
      : cpu_(cpu), histo_(histo), t0_(cpu != nullptr ? cpu->clock.now() : 0) {}
  ~LatencyScope() {
    if (cpu_ != nullptr) {
      histo_->Record(cpu_->clock.now() - t0_);
    }
  }
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  sim::CpuContext* cpu_;
  telemetry::Histogram* histo_;
  uint64_t t0_;
};

class RpcManager {
  // Type-erased, reference-counted job context. Two owners: the submitting
  // enclave thread and the (potential) worker execution. Whoever drops the
  // last reference frees it, so a worker running an abandoned job after the
  // caller moved on never touches dead stack frames. (Declared before the
  // public section so AsyncCall below can name JobImpl in its members.)
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

  template <typename F>
  struct JobImplVoid : JobBase {
    F fn;
    explicit JobImplVoid(F f) : fn(std::move(f)) {}
    void Run() override { fn(); }
  };

 public:
  enum class Mode { kInline, kThreaded };

  // Handle for an in-flight CallAsync/CallAsyncBatch submission. Move-only;
  // resolve it with Await (or AwaitAll) exactly once. The handle carries the
  // pending exit-less state (refcounted job + queue ticket) or, when the call
  // already resolved at submit time (inline mode, breaker short-circuit,
  // submit-timeout fallback), the finished result. Destroying a still-pending
  // handle without awaiting is memory-safe (the job is refcounted) but parks
  // the queue slot until the worker pipeline recycles it — always await.
  template <typename R, typename F>
  class AsyncCall {
   public:
    AsyncCall() = default;
    AsyncCall(AsyncCall&& o) noexcept
        : fn_(std::move(o.fn_)),
          job_(o.job_),
          ticket_(o.ticket_),
          io_bytes_(o.io_bytes_),
          result_(std::move(o.result_)) {
      o.job_ = nullptr;
      o.fn_.reset();
      o.result_.reset();
    }
    AsyncCall& operator=(AsyncCall&& o) noexcept {
      if (this != &o) {
        DropPending();
        fn_ = std::move(o.fn_);
        job_ = o.job_;
        ticket_ = o.ticket_;
        io_bytes_ = o.io_bytes_;
        result_ = std::move(o.result_);
        o.job_ = nullptr;
        o.fn_.reset();
        o.result_.reset();
      }
      return *this;
    }
    ~AsyncCall() { DropPending(); }

    AsyncCall(const AsyncCall&) = delete;
    AsyncCall& operator=(const AsyncCall&) = delete;

    // Still waiting on the untrusted side (vs. resolved at submit time).
    bool pending() const { return job_ != nullptr; }
    // False once awaited (or for a default-constructed handle).
    bool valid() const { return job_ != nullptr || result_.has_value(); }

   private:
    friend class RpcManager;
    void DropPending() {
      if (job_ != nullptr) {
        job_->Unref();
        job_ = nullptr;
      }
    }
    std::optional<F> fn_;  // fallback copy, alive while pending
    JobImpl<F, R>* job_ = nullptr;
    JobTicket ticket_{};
    size_t io_bytes_ = 0;
    std::optional<R> result_;  // resolved-at-submit result
  };

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
    // --- Self-healing (threaded mode) ---
    // Circuit breaker over the exit-less path: after `breaker_failure_
    // threshold` consecutive submit/await timeouts the manager stops paying
    // spin budgets at all and routes calls straight to the OCALL fallback
    // (breaker open). Every `breaker_probe_interval`-th short-circuited call
    // first submits a cheap no-op canary with the minimum budgets (breaker
    // half-open); a completed canary closes the breaker again.
    bool breaker_enabled = true;
    uint32_t breaker_failure_threshold = 3;
    uint64_t breaker_probe_interval = 64;
    // Adaptive spin budgets: each timeout halves the offending budget (never
    // below the minimum), each exit-less completion adds back 1/16 of the
    // configured range. A flaky-but-alive host therefore degrades smoothly
    // instead of bimodally; a benign host sits at the configured budgets
    // forever (recovery at the ceiling is a no-op), so healthy runs are
    // byte-identical with the feature on or off.
    bool adaptive_spin = true;
    uint64_t min_submit_spin_budget = 1ull << 8;
    uint64_t min_await_spin_budget = 1ull << 10;
    // --- Time-series SLO watchdog (DESIGN.md §13) ---
    // Declarative per-window rules, registered unconditionally at
    // construction (rules are inert until the machine's timeline sampler is
    // enabled, and registering either way keeps metric registration — and
    // thus snapshot bytes — identical whether or not sampling is on).
    // Violations emit kSloViolation traces and slo.violations counters; they
    // never feed the breaker itself (the breaker already reacts per call,
    // and fallback storms opening it would feed back into this very rule).
    double slo_fallback_rate_per_mcycle = 50.0;  // rpc.fallback deltas
    double slo_breaker_open_duty = 0.5;          // breaker_state != 0 duty
    size_t slo_duty_windows = 8;                 // duty-cycle lookback
  };

  RpcManager(sim::Enclave& enclave, Options options);
  ~RpcManager();

  RpcManager(const RpcManager&) = delete;
  RpcManager& operator=(const RpcManager&) = delete;

  // Exit-less call. `io_bytes` is the I/O buffer footprint the untrusted side
  // touches (pollutes the worker's LLC partition). Returns fn's result.
  template <typename Fn>
  std::invoke_result_t<Fn> Call(sim::CpuContext* cpu, size_t io_bytes, Fn&& fn) {
    // The causal root of everything this call does: the worker's execution,
    // a fallback OCALL, or a breaker short-circuit all become children.
    sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                        "rpc.call");
    // Submit→complete latency (virtual cycles), including any fallback OCALL.
    LatencyScope latency(cpu, call_cycles_);
    ChargeSubmit(cpu, io_bytes);
    if (mode_ == Mode::kThreaded) {
      return DispatchThreaded(cpu, io_bytes, std::forward<Fn>(fn));
    }
    return std::forward<Fn>(fn)();
  }

  // Long-running blocking calls fall back to the classic OCALL.
  template <typename Fn>
  decltype(auto) CallLong(sim::CpuContext& cpu, size_t io_bytes, Fn&& fn) {
    return enclave_->Ocall(cpu, io_bytes, std::forward<Fn>(fn));
  }

  // Asynchronous exit-less call: submits the job and returns immediately with
  // a handle, so one enclave thread can keep the whole worker pool busy and
  // overlap its own work with the untrusted side. Resolve with Await /
  // AwaitAll. Breaker, adaptive spin budgets, and fallback-to-OCALL behave
  // exactly as in Call — a breaker-open or submit-timeout call resolves at
  // submit time through the fallback and Await returns instantly. The
  // at-least-once caveat applies doubly here: an abandoned async job may
  // still run late on a worker after Await already fell back, so only route
  // idempotent operations through this path.
  template <typename Fn>
  auto CallAsync(sim::CpuContext* cpu, size_t io_bytes, Fn&& fn)
      -> AsyncCall<std::invoke_result_t<Fn>, std::decay_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    using F = std::decay_t<Fn>;
    static_assert(!std::is_void_v<R>,
                  "CallAsync needs a result to carry; use Call for void fns");
    AsyncCall<R, F> handle;
    handle.io_bytes_ = io_bytes;
    // The causal root of the submission; the worker's execution becomes its
    // child via the slot's span_id, linking submit and exec across threads.
    sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                        "rpc.call_async");
    ChargeSubmit(cpu, io_bytes);
    async_calls_.Inc();
    if (mode_ != Mode::kThreaded) {
      handle.result_.emplace(fn());
      return handle;
    }
    if (!AdmitExitless(cpu)) {
      sim::SpanScope denied(&enclave_->machine().metrics().spans(), cpu,
                            "rpc.breaker_short_circuit");
      handle.result_.emplace(Fallback(cpu, io_bytes, fn));
      return handle;
    }
    auto* job = new JobImpl<F, R>(F(fn));
    JobTicket ticket;
    const uint64_t submit_budget =
        submit_spin_budget_.load(std::memory_order_relaxed);
    telemetry::SpanTracer& spans = enclave_->machine().metrics().spans();
    const uint64_t span_id = spans.CurrentSpanId();
    const uint64_t submit_tsc =
        span_id != 0 && cpu != nullptr ? cpu->clock.now() : 0;
    if (!queue_->TrySubmit(&Trampoline, job, &ticket, submit_budget, span_id,
                           submit_tsc)) {
      job->Unref();
      job->Unref();  // never enqueued: the worker reference dies with ours
      sim::SpanScope fallback(&enclave_->machine().metrics().spans(), cpu,
                              "rpc.fallback_ocall");
      OnSpinTimeout(cpu, /*submit_side=*/true, submit_budget);
      CountFallback(cpu, FallbackWhy::kSubmitTimeout);
      handle.result_.emplace(Fallback(cpu, io_bytes, fn));
      return handle;
    }
    handle.job_ = job;
    handle.ticket_ = ticket;
    handle.fn_.emplace(std::forward<Fn>(fn));
    return handle;
  }

  // Batched submission: publishes one job per element of `fns` under a
  // single doorbell (JobQueue::TrySubmitBatch), so the rendezvous latency and
  // the result read-back pass are paid once per batch instead of once per
  // call — see ChargeSubmit's batch-aware charge and the rpc.batch_size
  // histogram. Elements that do not fit the ring retry individually under the
  // submit budget and fall back to the OCALL path on timeout. Returns one
  // handle per element, in order.
  template <typename Fn>
  auto CallAsyncBatch(sim::CpuContext* cpu, size_t io_bytes_each,
                      std::vector<Fn>& fns)
      -> std::vector<AsyncCall<std::invoke_result_t<Fn>, std::decay_t<Fn>>> {
    using R = std::invoke_result_t<Fn>;
    using F = std::decay_t<Fn>;
    static_assert(!std::is_void_v<R>,
                  "CallAsyncBatch needs result types; use Call for void fns");
    const size_t n = fns.size();
    std::vector<AsyncCall<R, F>> handles(n);
    if (n == 0) {
      return handles;
    }
    for (auto& h : handles) {
      h.io_bytes_ = io_bytes_each;
    }
    sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                        "rpc.call_batch");
    ChargeSubmit(cpu, io_bytes_each * n, n);
    async_calls_.Inc(n);
    if (mode_ != Mode::kThreaded) {
      for (size_t i = 0; i < n; ++i) {
        handles[i].result_.emplace(fns[i]());
      }
      return handles;
    }
    if (!AdmitExitless(cpu)) {
      sim::SpanScope denied(&enclave_->machine().metrics().spans(), cpu,
                            "rpc.breaker_short_circuit");
      for (size_t i = 0; i < n; ++i) {
        handles[i].result_.emplace(Fallback(cpu, io_bytes_each, fns[i]));
      }
      return handles;
    }
    std::vector<JobImpl<F, R>*> jobs;
    jobs.reserve(n);
    std::vector<UntrustedFn> trampolines(n, &Trampoline);
    std::vector<void*> args;
    args.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      jobs.push_back(new JobImpl<F, R>(F(fns[i])));
      args.push_back(jobs.back());
    }
    std::vector<JobTicket> tickets(n);
    telemetry::SpanTracer& spans = enclave_->machine().metrics().spans();
    const uint64_t span_id = spans.CurrentSpanId();
    const uint64_t submit_tsc =
        span_id != 0 && cpu != nullptr ? cpu->clock.now() : 0;
    const size_t published = queue_->TrySubmitBatch(
        trampolines.data(), args.data(), tickets.data(), n, span_id,
        submit_tsc);
    for (size_t i = 0; i < published; ++i) {
      handles[i].job_ = jobs[i];
      handles[i].ticket_ = tickets[i];
      handles[i].fn_.emplace(F(fns[i]));
    }
    // Remainder that missed the doorbell: individual bounded submits (with
    // backoff), OCALL fallback on timeout — same contract as CallAsync.
    for (size_t i = published; i < n; ++i) {
      const uint64_t submit_budget =
          submit_spin_budget_.load(std::memory_order_relaxed);
      JobTicket ticket;
      if (queue_->TrySubmit(&Trampoline, jobs[i], &ticket, submit_budget,
                            span_id, submit_tsc)) {
        handles[i].job_ = jobs[i];
        handles[i].ticket_ = ticket;
        handles[i].fn_.emplace(F(fns[i]));
        continue;
      }
      jobs[i]->Unref();
      jobs[i]->Unref();
      sim::SpanScope fallback(&enclave_->machine().metrics().spans(), cpu,
                              "rpc.fallback_ocall");
      OnSpinTimeout(cpu, /*submit_side=*/true, submit_budget);
      CountFallback(cpu, FallbackWhy::kSubmitTimeout);
      handles[i].result_.emplace(Fallback(cpu, io_bytes_each, fns[i]));
    }
    return handles;
  }

  // Resolves an async handle: returns the job's result, falling back to the
  // OCALL path (and re-running the fallback copy of fn) on await timeout.
  // A handle that resolved at submit time returns instantly.
  template <typename R, typename F>
  R Await(sim::CpuContext* cpu, AsyncCall<R, F>& handle) {
    sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                        "rpc.await");
    if (handle.job_ == nullptr) {
      if (!handle.result_.has_value()) {
        return R{};  // double-await / empty handle: nothing to return
      }
      R result = std::move(*handle.result_);
      handle.result_.reset();
      handle.fn_.reset();
      return result;
    }
    auto* job = handle.job_;
    handle.job_ = nullptr;
    const uint64_t await_budget =
        await_spin_budget_.load(std::memory_order_relaxed);
    const JobQueue::WaitResult wait =
        queue_->AwaitAndRelease(handle.ticket_, await_budget);
    if (wait == JobQueue::WaitResult::kCompleted &&
        job->ran.load(std::memory_order_acquire)) {
      OnExitlessSuccess();
      R result = std::move(job->result);
      job->Unref();
      handle.fn_.reset();
      return result;
    }
    // Same contract as DispatchThreaded: anything but a genuine completion
    // quarantines our job reference and resolves through the fallback.
    QuarantineJob(job);
    sim::SpanScope fallback(&enclave_->machine().metrics().spans(), cpu,
                            "rpc.fallback_ocall");
    NoteAwaitFailure(cpu, wait, await_budget);
    // The job may still run late on a worker; the fallback re-runs our own
    // copy of fn, never touching the (possibly racing) job's result.
    R result = Fallback(cpu, handle.io_bytes_, *handle.fn_);
    handle.fn_.reset();
    return result;
  }

  // Resolves a batch of handles in order (submission order == await order).
  template <typename R, typename F>
  std::vector<R> AwaitAll(sim::CpuContext* cpu,
                          std::vector<AsyncCall<R, F>>& handles) {
    std::vector<R> results;
    results.reserve(handles.size());
    for (auto& handle : handles) {
      results.push_back(Await(cpu, handle));
    }
    return results;
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
  uint64_t async_calls() const { return async_calls_.value(); }
  sim::Enclave& enclave() { return *enclave_; }

  // Hostile-host observability (threaded mode; all zero in healthy runs).
  uint64_t fallback_ocalls() const { return fallback_ocalls_.value(); }
  uint64_t submit_timeouts() const { return submit_timeouts_.value(); }
  uint64_t await_timeouts() const { return await_timeouts_.value(); }
  // Untrusted-boundary observability (DESIGN.md §12; zero in benign runs).
  uint64_t forged_completions() const { return forged_completions_.value(); }
  JobQueue* queue() { return queue_.get(); }
  WorkerPool* pool() { return pool_.get(); }

  // Self-healing observability.
  HealthState breaker_state() const { return breaker_.state(); }
  const HealthFsm& breaker() const { return breaker_; }
  uint64_t breaker_opens() const { return breaker_opens_.value(); }
  uint64_t breaker_short_circuits() const {
    return breaker_short_circuits_.value();
  }
  uint64_t breaker_probes() const { return breaker_.probes(); }
  uint64_t submit_spin_budget() const {
    return submit_spin_budget_.load(std::memory_order_relaxed);
  }
  uint64_t await_spin_budget() const {
    return await_spin_budget_.load(std::memory_order_relaxed);
  }

 private:
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
  void ChargeSubmit(sim::CpuContext* cpu, size_t io_bytes, size_t batch = 1);
  void CountFallback(sim::CpuContext* cpu, FallbackWhy why);

  // Breaker admission for one threaded call. True: proceed exit-less (the
  // breaker is closed, or a half-open canary just completed and closed it).
  // False: short-circuit to the OCALL fallback with zero spin cost.
  bool AdmitExitless(sim::CpuContext* cpu);
  // Submits + awaits a no-op canary job with the minimum spin budgets.
  bool RunCanary(sim::CpuContext* cpu);
  // Charges `spins` burned polling spins as virtual cycles (timeout paths
  // only — see CostModel::rpc_spin_cycles).
  void ChargeSpins(sim::CpuContext* cpu, uint64_t spins);
  // Timeout bookkeeping shared by both spin sites: charges the burned spin
  // budget as virtual cycles, shrinks the budget (adaptive), and feeds the
  // breaker (possibly tripping it open).
  void OnSpinTimeout(sim::CpuContext* cpu, bool submit_side,
                     uint64_t budget_burned);
  // Exit-less completion bookkeeping: feeds the breaker and lets the spin
  // budgets recover additively toward their configured ceilings.
  void OnExitlessSuccess();

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
  void NoteAwaitFailure(sim::CpuContext* cpu, JobQueue::WaitResult wait,
                        uint64_t await_budget);

  template <typename Fn>
  std::invoke_result_t<Fn> DispatchThreaded(sim::CpuContext* cpu,
                                            size_t io_bytes, Fn&& fn) {
    using R = std::invoke_result_t<Fn>;
    using F = std::decay_t<Fn>;
    constexpr bool kVoid = std::is_void_v<R>;
    using Job = std::conditional_t<kVoid, JobImplVoid<F>,
                                   JobImpl<F, std::conditional_t<kVoid, int, R>>>;
    if (!AdmitExitless(cpu)) {
      sim::SpanScope denied(&enclave_->machine().metrics().spans(), cpu,
                            "rpc.breaker_short_circuit");
      return Fallback(cpu, io_bytes, fn);
    }
    auto* job = new Job(F(fn));  // copy: `fn` is reused by the fallback path
    JobTicket ticket;
    const uint64_t submit_budget =
        submit_spin_budget_.load(std::memory_order_relaxed);
    // Propagate the causal context through the untrusted slot so the worker
    // can emit its execution as a child span of this call.
    telemetry::SpanTracer& spans = enclave_->machine().metrics().spans();
    const uint64_t span_id = spans.CurrentSpanId();
    const uint64_t submit_tsc =
        span_id != 0 && cpu != nullptr ? cpu->clock.now() : 0;
    if (!queue_->TrySubmit(&Trampoline, job, &ticket, submit_budget, span_id,
                           submit_tsc)) {
      job->Unref();
      job->Unref();  // never enqueued: the worker reference dies with ours
      sim::SpanScope fallback(&enclave_->machine().metrics().spans(), cpu,
                              "rpc.fallback_ocall");
      OnSpinTimeout(cpu, /*submit_side=*/true, submit_budget);
      CountFallback(cpu, FallbackWhy::kSubmitTimeout);
      return Fallback(cpu, io_bytes, fn);
    }
    const uint64_t await_budget =
        await_spin_budget_.load(std::memory_order_relaxed);
    const JobQueue::WaitResult wait =
        queue_->AwaitAndRelease(ticket, await_budget);
    if (wait == JobQueue::WaitResult::kCompleted &&
        job->ran.load(std::memory_order_acquire)) {
      OnExitlessSuccess();
      if constexpr (kVoid) {
        job->Unref();
        return;
      } else {
        R result = std::move(job->result);
        job->Unref();
        return result;
      }
    }
    // Timeout (revoked/abandoned), a scribbled slot (kHostile), or a forged
    // kDone whose job never actually ran: resolve through the OCALL
    // fallback. The job may still run late on a worker — and a "revoked" job
    // may secretly have been claimed, since kReady can be forged — so our
    // reference parks in the quarantine ledger instead of being dropped on
    // a never-claimed assumption.
    QuarantineJob(job);
    sim::SpanScope fallback(&enclave_->machine().metrics().spans(), cpu,
                            "rpc.fallback_ocall");
    NoteAwaitFailure(cpu, wait, await_budget);
    return Fallback(cpu, io_bytes, fn);
  }

  // The degraded path: a real OCALL (enclave exit) when the exit-less
  // machinery is unavailable. Charges genuine exit costs so hostile-host
  // pressure shows up in the virtual-cycle numbers.
  template <typename Fn>
  std::invoke_result_t<Fn> Fallback(sim::CpuContext* cpu, size_t io_bytes,
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
  Options options_;
  std::atomic<uint64_t> submit_spin_budget_;
  std::atomic<uint64_t> await_spin_budget_;
  // Effective floors/ceilings for the adaptive budgets (floors are clamped
  // to the configured budgets so a small static budget stays static).
  uint64_t min_submit_spin_budget_;
  uint64_t min_await_spin_budget_;
  std::unique_ptr<JobQueue> queue_;
  std::unique_ptr<WorkerPool> pool_;
  HealthFsm breaker_;
  Counter calls_;
  Counter async_calls_;
  Counter fallback_ocalls_;
  Counter submit_timeouts_;
  Counter await_timeouts_;
  Counter breaker_opens_;
  Counter breaker_short_circuits_;
  // Untrusted-boundary hardening (DESIGN.md §12).
  Counter forged_completions_;  // kDone published for a job that never ran
  Counter hostile_rejects_;     // scribbled/forged outcomes rejected at await
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
