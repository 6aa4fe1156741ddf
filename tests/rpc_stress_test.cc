// Copyright (c) Eleos reproduction authors. MIT license.
//
// RPC subsystem under stress: queue wraparound, many producers/consumers,
// result integrity under contention, accounting invariants — and hostile-host
// scenarios (killed/stalled workers, dropped completions, queue pressure)
// driven by the machine's FaultInjector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/health.h"

#include "src/rpc/job_queue.h"
#include "src/rpc/rpc_manager.h"
#include "src/rpc/worker_pool.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"

namespace eleos::rpc {
namespace {

TEST(JobQueueStress, SingleSlotQueueSerializesEverything) {
  JobQueue q(1);
  WorkerPool pool(q, 1);
  uint64_t counter = 0;  // unsynchronized on purpose: the queue serializes
  auto fn = +[](void* arg) { ++*static_cast<uint64_t*>(arg); };
  for (int i = 0; i < 2000; ++i) {
    const JobTicket ticket = q.Submit(fn, &counter);
    EXPECT_EQ(ticket.slot, 0u);
    q.AwaitAndRelease(ticket);
  }
  EXPECT_EQ(counter, 2000u);
}

TEST(JobQueueStress, ManyProducersManyWorkers) {
  JobQueue q(4);
  WorkerPool pool(q, 3);
  std::atomic<uint64_t> sum{0};
  struct Job {
    std::atomic<uint64_t>* sum;
    uint64_t value;
  };
  auto fn = +[](void* arg) {
    auto* j = static_cast<Job*>(arg);
    j->sum->fetch_add(j->value, std::memory_order_relaxed);
  };
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < 500; ++i) {
        Job job{&sum, static_cast<uint64_t>(p) * 10000 + i};
        const JobTicket ticket = q.Submit(fn, &job);
        q.AwaitAndRelease(ticket);  // job's stack lifetime requires completion
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  // sum over p in 0..3, i in 0..499 of (10000p + i).
  const uint64_t expected = 500ull * 10000 * (0 + 1 + 2 + 3) + 4ull * (499 * 500 / 2);
  EXPECT_EQ(sum.load(), expected);
  EXPECT_EQ(pool.jobs_executed(), 2000u);
}

TEST(RpcStress, ThousandsOfThreadedCallsReturnCorrectValues) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 2,
                           .queue_capacity = 4});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 1500; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i * i; });
    bad += r != i * i;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.calls(), 1500u);
}

TEST(RpcStress, AccountingIsPerCallDeterministic) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kInline, .use_cat = false});
  sim::CpuContext& cpu = machine.cpu(0);
  enclave.Enter(cpu);
  const uint64_t t0 = cpu.clock.now();
  rpc.Call(&cpu, 0, [] { return 0; });
  const uint64_t one = cpu.clock.now() - t0;
  for (int i = 0; i < 99; ++i) {
    rpc.Call(&cpu, 0, [] { return 0; });
  }
  enclave.Exit(cpu);
  const uint64_t total = cpu.clock.now() - t0;
  // Near-fixed cost per exit-less call (a few percent of slack for cache
  // effects of the polled queue).
  EXPECT_GE(total, 100 * one);
  EXPECT_LE(total, 105 * one) << "fixed cost per exit-less call";
}

TEST(RpcStress, MixedCallAndCallLong) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kInline, .use_cat = true});
  sim::CpuContext& cpu = machine.cpu(0);
  cpu.cos = rpc.enclave_cos();
  enclave.Enter(cpu);
  uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    total += rpc.Call(&cpu, 32, [i] { return static_cast<uint64_t>(i); });
    if (i % 10 == 0) {  // a blocking poll() goes through the classic OCALL
      total += rpc.CallLong(cpu, 32, [i] { return static_cast<uint64_t>(i); });
    }
  }
  enclave.Exit(cpu);
  EXPECT_EQ(total, 4950u + 450u);
  // The enclave re-entered after each CallLong (10 OCALLs), never for Call.
  EXPECT_EQ(cpu.tlb.flushes(), 10u + 1u);  // 10 OCALL exits + the final Exit
}

TEST(RpcStress, DestructorRestoresCachePartitioning) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  {
    RpcManager rpc(enclave, {.mode = RpcManager::Mode::kInline, .use_cat = true});
    EXPECT_EQ(rpc.enclave_cos(), sim::kCosEnclave);
    EXPECT_EQ(rpc.worker_cos(), sim::kCosRpcWorker);
  }
  // After destruction every class of service fills the full cache again: a
  // worker-cos sweep must be able to evict an enclave-cos line.
  machine.llc().Access(1234, false, sim::MemKind::kUntrusted, sim::kCosEnclave);
  const size_t lines = machine.costs().llc_bytes / machine.costs().llc_line;
  for (uint64_t i = 0; i < 2 * lines; ++i) {
    machine.llc().Access((1ull << 32) + i, true, sim::MemKind::kUntrusted,
                         sim::kCosRpcWorker);
  }
  machine.llc().ResetStats();
  machine.llc().Access(1234, false, sim::MemKind::kUntrusted, sim::kCosEnclave);
  EXPECT_EQ(machine.llc().misses(), 1u);
}

// --- Hostile-host scenarios ---

TEST(JobQueueFault, AbandonedClaimAndStaleCompletionAreGenerationChecked) {
  // Deterministic single-slot walk through the abandon/late-complete machinery:
  // this test plays both the submitter and a stalled worker.
  JobQueue q(1);
  auto fn = +[](void*) {};

  const JobTicket t1 = q.Submit(fn, nullptr);
  JobTicket claim;
  UntrustedFn got_fn;
  void* got_arg;
  ASSERT_TRUE(q.TryClaim(&claim, &got_fn, &got_arg));

  // The "worker" (us) sits on the claim; the submitter times out.
  EXPECT_EQ(q.AwaitAndRelease(t1, /*spin_budget=*/128),
            JobQueue::WaitResult::kAbandoned);
  EXPECT_EQ(q.abandoned_slots(), 1u);

  // The worker completes late: the slot is recycled, not marked done. This
  // is the abandoned-recycle flavor of a late completion (same generation,
  // slot parked as kAbandoned), not a stale-generation drop.
  q.Complete(claim);
  EXPECT_EQ(q.abandoned_recycles(), 1u);
  EXPECT_EQ(q.stale_completions(), 0u);
  EXPECT_EQ(q.late_completions(), 1u);  // legacy aggregate = sum of the two

  // The slot is reusable under a new generation; a second stale Complete
  // carrying the old ticket is dropped on the generation check.
  const JobTicket t2 = q.Submit(fn, nullptr);
  EXPECT_NE(t2.gen, t1.gen);
  JobTicket claim2;
  ASSERT_TRUE(q.TryClaim(&claim2, &got_fn, &got_arg));
  q.Complete(claim);  // stale generation: must not touch the new job
  EXPECT_EQ(q.stale_completions(), 1u);
  EXPECT_EQ(q.abandoned_recycles(), 1u);
  EXPECT_EQ(q.late_completions(), 2u);
  q.Complete(claim2);
  EXPECT_EQ(q.AwaitAndRelease(t2, kUnboundedSpins),
            JobQueue::WaitResult::kCompleted);
}

TEST(JobQueueFault, UnclaimedJobIsRevokedOnTimeout) {
  JobQueue q(2);  // no workers: the job is never claimed
  std::atomic<int> ran{0};
  auto fn = +[](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); };
  const JobTicket t = q.Submit(fn, &ran);
  EXPECT_EQ(q.AwaitAndRelease(t, /*spin_budget=*/64),
            JobQueue::WaitResult::kRevoked);
  EXPECT_EQ(ran.load(), 0) << "a revoked job must never run";

  // The revoked slot is immediately reusable.
  const JobTicket t2 = q.Submit(fn, &ran);
  JobTicket claim;
  UntrustedFn got_fn;
  void* got_arg;
  ASSERT_TRUE(q.TryClaim(&claim, &got_fn, &got_arg));
  got_fn(got_arg);
  q.Complete(claim);
  EXPECT_EQ(q.AwaitAndRelease(t2, kUnboundedSpins),
            JobQueue::WaitResult::kCompleted);
  EXPECT_EQ(ran.load(), 1);
}

TEST(RpcFault, KilledWorkersAreRespawnedByTheWatchdog) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  // The host kills the first two workers that poll; the watchdog must bring
  // the pool back and every call must still return the right value.
  machine.fault_injector().Arm(sim::Fault::kWorkerDeath, 1.0,
                               /*max_triggers=*/2);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 2,
                           .queue_capacity = 4});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return 3 * i + 1; });
    bad += r != 3 * i + 1;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.pool()->worker_deaths(), 2u);
  // The watchdog noticed and respawned (possibly while we were still calling).
  for (int spins = 0; rpc.pool()->alive_workers() < 2 && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rpc.pool()->alive_workers(), 2u);
  EXPECT_GE(rpc.pool()->worker_respawns(), 2u);
}

TEST(RpcFault, StalledWorkerTriggersFallbackOcall) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  sim::FaultInjector& faults = machine.fault_injector();
  faults.set_worker_stall_spins(1ull << 30);  // effectively forever
  faults.Arm(sim::Fault::kWorkerStall, 1.0, /*max_triggers=*/1);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 4,
                           .await_spin_budget = 1 << 14});
  sim::CpuContext& cpu = machine.cpu(0);
  enclave.Enter(cpu);
  const uint64_t flushes_before = cpu.tlb.flushes();
  // The single worker stalls on the first claim; the call must degrade to a
  // classic OCALL (a real exit) instead of wedging the enclave.
  const int v = rpc.Call(&cpu, 0, [] { return 7; });
  enclave.Exit(cpu);
  EXPECT_EQ(v, 7);
  EXPECT_GE(rpc.fallback_ocalls(), 1u);
  EXPECT_GE(rpc.await_timeouts(), 1u);
  EXPECT_GT(cpu.tlb.flushes(), flushes_before) << "fallback pays a real exit";
}

TEST(RpcFault, DroppedCompletionTriggersFallbackOcall) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  machine.fault_injector().Arm(sim::Fault::kCompletionDrop, 1.0,
                               /*max_triggers=*/1);
  // Static-path semantics under test: breaker/adaptive off so every call
  // attempts the exit-less path (the armed drop must eventually fire even if
  // the worker thread is scheduled late).
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 4,
                           .await_spin_budget = 1 << 14,
                           .breaker_enabled = false,
                           .adaptive_spin = false});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i ^ 0xabcdu; });
    bad += r != (i ^ 0xabcdu);
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.pool()->completions_dropped(), 1u);
  EXPECT_GE(rpc.fallback_ocalls(), 1u);
}

TEST(RpcFault, FullQueueTriggersSubmitTimeoutFallback) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  // The host pretends the queue is permanently full: every submit round sees
  // injected backpressure, so the bounded submit gives up and falls back.
  machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
  // Static-path semantics under test: with the breaker enabled the manager
  // would stop submitting after three timeouts (see RpcBreaker tests below).
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 2,
                           .submit_spin_budget = 32,
                           .breaker_enabled = false,
                           .adaptive_spin = false});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i + 100; });
    bad += r != i + 100;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.submit_timeouts(), 20u);
  EXPECT_EQ(rpc.fallback_ocalls(), 20u);
  EXPECT_GT(rpc.queue()->queue_full_spins(), 0u);

  // Pressure lifted: the exit-less path works again.
  machine.fault_injector().Disarm(sim::Fault::kQueueFull);
  const uint64_t r = rpc.Call(nullptr, 0, [] { return 4242; });
  EXPECT_EQ(r, 4242u);
  EXPECT_EQ(rpc.fallback_ocalls(), 20u) << "no new fallback once healthy";
}

// --- Self-healing: circuit breaker + adaptive spin budgets ---

TEST(RpcBreaker, OpensAfterConsecutiveTimeoutsThenCanaryCloses) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 2,
                           .submit_spin_budget = 32,
                           .breaker_failure_threshold = 3,
                           .breaker_probe_interval = 4,
                           .adaptive_spin = false,
                           // Generous canary await so a late-scheduled worker
                           // cannot flake the recovery half of the test.
                           .min_await_spin_budget = 1 << 22});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i + 100; });
    bad += r != i + 100;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.fallback_ocalls(), 20u) << "every call still completed";
  // Exactly three calls paid the submit spin budget; the breaker then opened
  // and the rest short-circuited (canary probes fail at submit while the
  // pressure persists, but they are not counted as submit timeouts).
  EXPECT_EQ(rpc.submit_timeouts(), 3u);
  EXPECT_EQ(rpc.breaker_opens(), 1u);
  EXPECT_EQ(rpc.breaker_state(), HealthState::kDegraded);
  EXPECT_GE(rpc.breaker_short_circuits(), 10u);
  EXPECT_GE(rpc.breaker_probes(), 1u);

  // Pressure lifts: calls keep short-circuiting until a probe slot comes up,
  // whose canary completes and closes the breaker; traffic is exit-less again.
  machine.fault_injector().Disarm(sim::Fault::kQueueFull);
  for (int i = 0;
       i < 16 && rpc.breaker_state() != HealthState::kHealthy; ++i) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [] { return 4242ull; }), 4242u);
  }
  EXPECT_EQ(rpc.breaker_state(), HealthState::kHealthy);
  const uint64_t fallbacks_at_close = rpc.fallback_ocalls();
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [i] { return i * 7; }), i * 7);
  }
  EXPECT_EQ(rpc.fallback_ocalls(), fallbacks_at_close)
      << "no fallback once closed";

  // PublishAll mirrors the breaker into the machine's metric registry.
  machine.PublishAll();
  EXPECT_EQ(machine.metrics().GetCounter("rpc.breaker_opens")->value(),
            rpc.breaker_opens());
  EXPECT_EQ(machine.metrics().GetGauge("rpc.breaker_state")->value(),
            static_cast<int64_t>(HealthState::kHealthy));
  EXPECT_GT(machine.metrics().GetCounter("rpc.breaker_short_circuits")->value(),
            0u);
}

TEST(RpcBreaker, AdaptiveBudgetsShrinkOnTimeoutAndRecoverOnSuccess) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  sim::FaultInjector& faults = machine.fault_injector();
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 4,
                           .submit_spin_budget = 1 << 16,
                           .await_spin_budget = 1 << 16,
                           .breaker_enabled = false,  // isolate the AIMD logic
                           .min_submit_spin_budget = 1 << 8,
                           .min_await_spin_budget = 1 << 8});
  EXPECT_EQ(rpc.submit_spin_budget(), 1u << 16);
  EXPECT_EQ(rpc.await_spin_budget(), 1u << 16);

  // Multiplicative shrink: each submit timeout halves the submit budget.
  faults.Arm(sim::Fault::kQueueFull, 1.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [] { return 9u; }), 9u);
  }
  EXPECT_EQ(rpc.submit_spin_budget(), (1u << 16) >> 4);
  EXPECT_EQ(rpc.await_spin_budget(), 1u << 16) << "await side untouched";

  // ...but never below the floor.
  for (int i = 0; i < 30; ++i) {
    rpc.Call(nullptr, 0, [] { return 0u; });
  }
  EXPECT_EQ(rpc.submit_spin_budget(), 1u << 8);

  // Await-side shrink, while the await budget still sits at its ceiling: a
  // dropped completion times out the await spin and halves the await budget
  // (the call still completes via fallback). Loop until the drop fired. One
  // drop is all the assertion needs: the call whose completion was dropped
  // has returned, shrinking the budget, by the time the counter is seen.
  // Under CPU contention the starved worker misses calls that revoke first,
  // and each such timeout halves the budget too, so the drop can take many
  // calls to land; the loop is bounded by wall-clock time, not a call count.
  faults.Disarm(sim::Fault::kQueueFull);
  faults.Arm(sim::Fault::kCompletionDrop, 1.0, /*max_triggers=*/1);
  uint64_t min_await = rpc.await_spin_budget();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rpc.pool()->completions_dropped() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [] { return 3u; }), 3u);
    min_await = std::min(min_await, rpc.await_spin_budget());
  }
  EXPECT_EQ(rpc.pool()->completions_dropped(), 1u);
  EXPECT_LE(min_await, 1u << 15) << "await budget shrank on timeout";

  // Additive recovery: each exit-less completion walks both budgets up by
  // 1/16 of the (floor, ceiling) range. Under CPU contention the starved
  // worker loses wall-clock races: lost awaits halve the await budget again,
  // and revoked jobs can genuinely fill the tiny queue, halving the submit
  // budget mid-climb. So recovery is asserted as a strong climb off the
  // floor, not an exact resting point — an uncontended run exits at the
  // ceiling within a couple dozen calls.
  faults.DisarmAll();
  uint64_t max_await = rpc.await_spin_budget();
  for (int i = 0; i < 8000 && rpc.submit_spin_budget() < (1u << 16); ++i) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [] { return 5u; }), 5u);
    max_await = std::max(max_await, rpc.await_spin_budget());
  }
  EXPECT_GE(rpc.submit_spin_budget(), 1u << 14)
      << "submit budget climbed well off its floor";
  EXPECT_GT(max_await, 1u << 8) << "successes bumped the await side too";
}

}  // namespace
}  // namespace eleos::rpc
