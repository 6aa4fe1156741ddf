// Copyright (c) Eleos reproduction authors. MIT license.
//
// RPC subsystem under stress: queue wraparound, many producers/consumers,
// result integrity under contention, accounting invariants — and hostile-host
// scenarios (killed/stalled workers, dropped completions, queue pressure)
// driven by the machine's FaultInjector. Exact timeout, breaker and fallback
// counts are asserted only where no worker thread can change them (no worker,
// or a queue that reads full); a test that needs a live worker loops until
// the event under a wall-clock deadline and asserts only what every schedule
// guarantees.

#include <gtest/gtest.h>

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

  // The slot is reusable under a new generation; a second stale Complete
  // carrying the old ticket is dropped on the generation check.
  const JobTicket t2 = q.Submit(fn, nullptr);
  EXPECT_NE(t2.gen, t1.gen);
  JobTicket claim2;
  ASSERT_TRUE(q.TryClaim(&claim2, &got_fn, &got_arg));
  q.Complete(claim);  // stale generation: must not touch the new job
  EXPECT_EQ(q.stale_completions(), 1u);
  EXPECT_EQ(q.abandoned_recycles(), 1u);
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

TEST(RpcRace, DroppedCompletionFallsBackWithTheRightValue) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  machine.fault_injector().Arm(sim::Fault::kCompletionDrop, 1.0,
                               /*max_triggers=*/1);
  // Breaker off so every call attempts the exit-less path. The drop fires on
  // the first job the worker runs, which can take many calls when the worker
  // is scheduled late (unclaimed jobs revoke harmlessly), so the loop is
  // bounded by wall-clock time, not a call count. The call whose completion
  // was dropped falls back, and has returned by the time the counter reads 1.
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 4,
                           .await_spin_budget = 1 << 14,
                           .breaker_enabled = false});
  uint64_t bad = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (uint64_t i = 0; rpc.pool()->completions_dropped() < 1 &&
                       std::chrono::steady_clock::now() < deadline;
       ++i) {
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
                           .breaker_enabled = false});
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

// --- Breaker policy: exact counts, no worker ---
//
// With no worker thread every published job stays unclaimed, so each await
// spins its whole budget and revokes the job: every call's outcome is fixed
// before it is made, whatever the OS scheduler does.

TEST(RpcPolicy, BreakerOffEveryAwaitTimeoutFallsBack) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 0,
                           .queue_capacity = 4,
                           .await_spin_budget = 1 << 10,
                           .breaker_enabled = false});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i ^ 0xabcdu; });
    bad += r != (i ^ 0xabcdu);
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.await_timeouts(), 50u);
  EXPECT_EQ(rpc.submit_timeouts(), 0u);
  EXPECT_EQ(rpc.fallback_ocalls(), 50u);
  EXPECT_EQ(rpc.breaker_opens(), 0u);
  EXPECT_EQ(rpc.pool()->jobs_executed(), 0u);
}

TEST(RpcPolicy, BreakerOpensOnThirdAwaitTimeoutAndProbesEverySixtyFourth) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 0,
                           .queue_capacity = 4,
                           .await_spin_budget = 1 << 10});
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 131; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i * 3 + 1; });
    bad += r != i * 3 + 1;
  }
  EXPECT_EQ(bad, 0u);
  // Calls 1-3 time out and the third opens the breaker. Of the 128 calls
  // after it, every 64th runs a canary, which nobody claims (a probe, not a
  // short circuit); the other 126 short-circuit. Every call falls back.
  EXPECT_EQ(rpc.await_timeouts(), 3u);
  EXPECT_EQ(rpc.submit_timeouts(), 0u);
  EXPECT_EQ(rpc.breaker_opens(), 1u);
  EXPECT_EQ(rpc.breaker_probes(), 2u);
  EXPECT_EQ(rpc.breaker_short_circuits(), 126u);
  EXPECT_EQ(rpc.fallback_ocalls(), 131u);
  EXPECT_EQ(rpc.breaker_state(), HealthState::kDegraded);
  EXPECT_EQ(rpc.pool()->jobs_executed(), 0u);
}

// --- Self-healing: the circuit breaker ---

TEST(RpcBreaker, OpensAfterConsecutiveTimeoutsThenCanaryCloses) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 2,
                           .submit_spin_budget = 32});
  // Nothing is ever published while the queue reads full, so the counts are
  // exact whatever the worker does.
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 67; ++i) {
    const uint64_t r = rpc.Call(nullptr, 0, [i] { return i + 100; });
    bad += r != i + 100;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(rpc.fallback_ocalls(), 67u) << "every call still completed";
  // Exactly three calls paid the submit spin budget; the breaker then opened
  // and the next 63 short-circuited. The 64th after the trip ran a canary,
  // which failed at submit while the pressure persists (a probe, not a
  // submit timeout), so the breaker stays open.
  EXPECT_EQ(rpc.submit_timeouts(), 3u);
  EXPECT_EQ(rpc.breaker_opens(), 1u);
  EXPECT_EQ(rpc.breaker_short_circuits(), 63u);
  EXPECT_EQ(rpc.breaker_probes(), 1u);
  EXPECT_EQ(rpc.breaker_state(), HealthState::kDegraded);

  // Pressure lifts: calls keep short-circuiting until a probe's canary
  // completes and closes the breaker. The live worker must finish the canary
  // within its small await budget, so a late-scheduled worker costs another
  // probe interval; the loop is bounded by wall-clock time, not a count.
  machine.fault_injector().Disarm(sim::Fault::kQueueFull);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rpc.breaker_state() != HealthState::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [] { return 4242ull; }), 4242u);
  }
  ASSERT_EQ(rpc.breaker_state(), HealthState::kHealthy);
  EXPECT_EQ(rpc.breaker_opens(), 1u);
  const uint64_t fallbacks_at_close = rpc.fallback_ocalls();
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rpc.Call(nullptr, 0, [i] { return i * 7; }), i * 7);
  }
  EXPECT_EQ(rpc.fallback_ocalls(), fallbacks_at_close)
      << "no fallback once closed";

  // The machine's metric registry reads the breaker in place.
  EXPECT_EQ(machine.metrics().CounterValue("rpc.breaker_opens"),
            rpc.breaker_opens());
  int64_t breaker_state = -1;
  for (const auto& [name, level] : machine.metrics().TakeSnapshot().gauges) {
    if (name == "rpc.breaker_state") {
      breaker_state = level;
    }
  }
  EXPECT_EQ(breaker_state, static_cast<int64_t>(HealthState::kHealthy));
  EXPECT_EQ(machine.metrics().CounterValue("rpc.breaker_short_circuits"),
            rpc.breaker_short_circuits());
}

}  // namespace
}  // namespace eleos::rpc
