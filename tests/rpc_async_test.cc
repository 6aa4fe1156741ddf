// Copyright (c) Eleos reproduction authors. MIT license.
//
// The batched exit-less RPC path and the O(1) ring rewrite of the JobQueue:
// ring-cursor wraparound, single-doorbell batch submit/drain, CallBatch
// results and run-by-run publication, breaker interaction, deterministic
// batch accounting — and the liveness fixes (bounded terminal await, watchdog
// scrub of claims held by killed workers) under a multi-submitter ×
// multi-worker stress mix of revoke/abandon/kill interleavings (TSan-listed).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kvcache.h"
#include "src/apps/mem_region.h"
#include "src/libos/fs.h"
#include "src/libos/memfs.h"
#include "src/rpc/job_queue.h"
#include "src/rpc/rpc_manager.h"
#include "src/rpc/worker_pool.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"

namespace eleos::rpc {
namespace {

// --- The ring itself ---

TEST(JobQueueRing, CursorSpreadsSubmissionsAcrossSlots) {
  // The pre-ring implementation always found slot 0 free in this
  // submit/claim/complete/release lockstep; the ring cursor must instead walk
  // every slot of the capacity-8 queue.
  JobQueue q(8);
  auto fn = +[](void*) {};
  std::vector<bool> visited(q.capacity(), false);
  for (int i = 0; i < 64; ++i) {
    const JobTicket t = q.Submit(fn, nullptr);
    visited[t.slot] = true;
    JobTicket claim;
    UntrustedFn got_fn;
    void* got_arg;
    ASSERT_TRUE(q.TryClaim(&claim, &got_fn, &got_arg));
    EXPECT_EQ(claim.slot, t.slot);
    q.Complete(claim);
    EXPECT_EQ(q.AwaitAndRelease(t, kUnboundedSpins),
              JobQueue::WaitResult::kCompleted);
  }
  for (size_t s = 0; s < visited.size(); ++s) {
    EXPECT_TRUE(visited[s]) << "ring cursor never reached slot " << s;
  }
}

TEST(JobQueueRing, BatchPublishesAndDrainsAsOneRun) {
  JobQueue q(16);
  auto fn = +[](void* arg) { ++*static_cast<int*>(arg); };
  int cells[8] = {};
  UntrustedFn fns[8];
  void* args[8];
  for (int i = 0; i < 8; ++i) {
    fns[i] = fn;
    args[i] = &cells[i];
  }
  JobTicket tickets[8];
  ASSERT_EQ(q.TrySubmitBatch(fns, args, tickets, 8), 8u);

  // One claim pass drains the whole doorbell as a contiguous ready run.
  JobQueue::ClaimedJob jobs[8];
  ASSERT_EQ(q.TryClaimBatch(jobs, 8), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(jobs[i].ticket.slot, tickets[i].slot);
    jobs[i].fn(jobs[i].arg);
    q.Complete(jobs[i].ticket);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cells[i], 1);
    EXPECT_EQ(q.AwaitAndRelease(tickets[i], kUnboundedSpins),
              JobQueue::WaitResult::kCompleted);
  }
}

TEST(JobQueueRing, BatchLargerThanFreeSpacePublishesPartially) {
  JobQueue q(4);
  auto fn = +[](void*) {};
  UntrustedFn fns[6];
  void* args[6] = {};
  for (auto& f : fns) {
    f = fn;
  }
  JobTicket tickets[6];
  const size_t published = q.TrySubmitBatch(fns, args, tickets, 6);
  EXPECT_EQ(published, 4u) << "capacity bounds the doorbell";
  JobQueue::ClaimedJob jobs[6];
  ASSERT_EQ(q.TryClaimBatch(jobs, 6), 4u);
  for (size_t i = 0; i < 4; ++i) {
    q.Complete(jobs[i].ticket);
    EXPECT_EQ(q.AwaitAndRelease(tickets[i], kUnboundedSpins),
              JobQueue::WaitResult::kCompleted);
  }
}

// --- Liveness fix: bounded terminal await ---

TEST(JobQueueHostile, AwaitNeverWedgesOnHostScribbledState) {
  // A hostile host parks the slot's state word in a value the await loop's
  // historical "lost both races" path would spin on forever. The bounded
  // terminal re-check must force-abandon instead of wedging the enclave.
  JobQueue q(1);
  auto fn = +[](void*) {};
  const JobTicket t = q.Submit(fn, nullptr);
  JobTicket claim;
  UntrustedFn got_fn;
  void* got_arg;
  ASSERT_TRUE(q.TryClaim(&claim, &got_fn, &got_arg));  // slot -> kRunning
  q.HostileWriteStateForTest(0, SlotState::kFilling);  // host scribbles

  EXPECT_EQ(q.AwaitAndRelease(t, /*spin_budget=*/128),
            JobQueue::WaitResult::kAbandoned);
  EXPECT_EQ(q.terminal_abandons(), 1u);
  EXPECT_EQ(q.abandoned_slots(), 1u);

  // The honest worker's late Complete finds the forced kAbandoned and
  // recycles the slot; the queue is whole again.
  q.Complete(claim);
  EXPECT_EQ(q.abandoned_recycles(), 1u);
  const JobTicket t2 = q.Submit(fn, nullptr);
  JobTicket claim2;
  ASSERT_TRUE(q.TryClaim(&claim2, &got_fn, &got_arg));
  q.Complete(claim2);
  EXPECT_EQ(q.AwaitAndRelease(t2, kUnboundedSpins),
            JobQueue::WaitResult::kCompleted);
}

// --- Boundary fix: a replayed claim can never dispatch a job twice ---

TEST(JobQueueHostile, ForgedReadyOverLiveClaimNeverDispatchesAgain) {
  // The use-after-free vector: a worker claims the job (kReady -> kRunning),
  // then the host forges kReady over the live claim. The payload in the slot
  // is genuine — same generation, valid integrity word — so a snapshot-only
  // defense would hand the SAME job pointer to a second worker that owns no
  // reference to it. The shadow slot's claim-once token must make the replay
  // lose instead, without it ever receiving the job.
  JobQueue q(1);
  auto fn = +[](void*) {};
  const JobTicket t = q.Submit(fn, nullptr);
  JobTicket claim;
  UntrustedFn got_fn;
  void* got_arg;
  ASSERT_TRUE(q.TryClaim(&claim, &got_fn, &got_arg));   // worker A's claim
  q.HostileWriteStateForTest(0, SlotState::kReady);     // host replays kReady

  JobTicket claim2;
  EXPECT_FALSE(q.TryClaim(&claim2, &got_fn, &got_arg));  // worker B loses
  EXPECT_EQ(q.claim_replays(), 1u);

  // The replay parked the slot kHostile; the submitter reclaims it and fails
  // closed (the RpcManager quarantines the job and falls back to OCALL).
  EXPECT_EQ(q.AwaitAndRelease(t, /*spin_budget=*/128),
            JobQueue::WaitResult::kHostile);
  EXPECT_EQ(q.hostile_reclaims(), 1u);

  // Worker A's late completion is stale (the slot moved on) and is dropped;
  // the slot is whole again for the next publication.
  q.Complete(claim);
  EXPECT_EQ(q.stale_completions(), 1u);
  const JobTicket t2 = q.Submit(fn, nullptr);
  JobTicket claim3;
  ASSERT_TRUE(q.TryClaim(&claim3, &got_fn, &got_arg));
  EXPECT_NE(claim3.gen, claim.gen);  // a fresh publication, not a replay
  q.Complete(claim3);
  EXPECT_EQ(q.AwaitAndRelease(t2, kUnboundedSpins),
            JobQueue::WaitResult::kCompleted);
}

// --- Liveness fix: watchdog scrub of claims held by killed workers ---

TEST(RpcFault, WatchdogScrubsClaimsHeldByKilledWorkers) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  // The host kills the worker *between claim and completion* — the regression
  // this guards: the abandoned slot used to stay kAbandoned forever,
  // permanently shrinking the ring.
  machine.fault_injector().Arm(sim::Fault::kWorkerDeathWithClaim, 1.0,
                               /*max_triggers=*/1);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 2,
                           .await_spin_budget = 1 << 20,
                           .breaker_enabled = false});
  // Each wait below runs until its event or one 30 s wall-clock deadline,
  // never for a fixed number of calls: a cold worker may lose the race to
  // claim many calls before the armed kill fires (those revoke harmlessly).
  // The victim call still returns correctly through the fallback.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto in_time = [&] {
    return std::chrono::steady_clock::now() < deadline;
  };
  uint64_t bad = 0;
  for (uint64_t i = 0; rpc.pool()->worker_deaths() < 1 && in_time(); ++i) {
    bad += rpc.Call(nullptr, 0, [i] { return i + 11; }) != i + 11;
  }
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(rpc.pool()->worker_deaths(), 1u);
  // The watchdog joins the corpse, inherits the ticket, and scrubs it once
  // the submitter's abandon lands.
  while (rpc.queue()->abandoned_scrubs() < 1 && in_time()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rpc.queue()->abandoned_scrubs(), 1u);
  EXPECT_GE(rpc.queue()->abandoned_slots(), 1u);

  // The ring is whole again: with the scrubbed slot back and the respawned
  // worker claiming, exit-less calls must succeed without fallback. Without
  // the scrub, the leaked slot would still be parked kAbandoned forever.
  while (rpc.pool()->alive_workers() < 1 && in_time()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int healthy_streak = 0;
  for (uint64_t i = 0; healthy_streak < 4 && in_time(); ++i) {
    const uint64_t fb = rpc.fallback_ocalls();
    EXPECT_EQ(rpc.Call(nullptr, 0, [i] { return i + 7; }), i + 7);
    healthy_streak = rpc.fallback_ocalls() == fb ? healthy_streak + 1 : 0;
  }
  EXPECT_EQ(healthy_streak, 4) << "exit-less path never became healthy again";
}

// --- Multi-submitter × multi-worker stress across revoke/abandon/kill ---

TEST(JobQueueAsyncStress, NoLostOrDoubleRunAcrossRevokeAbandonKill) {
  constexpr size_t kSubmitters = 4;
  constexpr size_t kJobsEach = 400;
  constexpr size_t kJobs = kSubmitters * kJobsEach;

  sim::Machine machine;
  sim::FaultInjector& faults = machine.fault_injector();
  // A few percent of claims die mid-flight; the watchdog respawns and scrubs.
  faults.Arm(sim::Fault::kWorkerDeathWithClaim, 0.02, /*max_triggers=*/6);
  JobQueue q(8, &faults);
  WorkerPool pool(q, 3, &faults);

  // One atomic cell per job: the only thing a job does is bump its cell, so
  // "lost" (completed but never ran) and "double-run" both become countable.
  std::vector<std::atomic<uint32_t>> cells(kJobs);
  struct JobArg {
    std::atomic<uint32_t>* cell;
  };
  std::vector<JobArg> args(kJobs);
  for (size_t i = 0; i < kJobs; ++i) {
    args[i].cell = &cells[i];
  }
  auto fn = +[](void* arg) {
    static_cast<JobArg*>(arg)->cell->fetch_add(1, std::memory_order_relaxed);
  };

  // Per-job outcome, written only by the owning submitter thread and read
  // after join.
  enum class Outcome : uint8_t { kNotSubmitted, kCompleted, kRevoked, kAbandoned };
  std::vector<Outcome> outcomes(kJobs, Outcome::kNotSubmitted);

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (size_t i = 0; i < kJobsEach; ++i) {
        const size_t idx = s * kJobsEach + i;
        JobTicket t;
        if (!q.TrySubmit(fn, &args[idx], &t, /*spin_budget=*/1 << 12)) {
          continue;  // ring full under contention: job never existed
        }
        // Mixed await budgets force a real blend of completions, revokes
        // (never claimed), and abandons (claimed, not yet done) — the
        // interleavings the generation machinery must survive. Unbounded is
        // NOT an option here: a claim held by a killed worker only ever
        // resolves through abandon-then-scrub.
        const uint64_t budget = (i % 7 == 0) ? 64 : 1 << 22;
        switch (q.AwaitAndRelease(t, budget)) {
          case JobQueue::WaitResult::kCompleted:
            outcomes[idx] = Outcome::kCompleted;
            break;
          case JobQueue::WaitResult::kRevoked:
            outcomes[idx] = Outcome::kRevoked;
            break;
          case JobQueue::WaitResult::kAbandoned:
            outcomes[idx] = Outcome::kAbandoned;
            break;
          case JobQueue::WaitResult::kHostile:
            // No scribbler is armed: a hostile verdict here is a bug.
            ADD_FAILURE() << "job " << idx << " awaited as hostile";
            break;
        }
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }

  // Quiesce: abandoned jobs may still run late on live workers. The sum is
  // monotone, so two equal reads 50 ms apart mean the dust has settled.
  auto sum_cells = [&] {
    uint64_t sum = 0;
    for (auto& c : cells) {
      sum += c.load(std::memory_order_relaxed);
    }
    return sum;
  };
  uint64_t prev = sum_cells();
  for (int round = 0; round < 100; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t cur = sum_cells();
    if (cur == prev) {
      break;
    }
    prev = cur;
  }

  uint64_t completed = 0, revoked = 0, abandoned = 0;
  for (size_t i = 0; i < kJobs; ++i) {
    const uint32_t runs = cells[i].load(std::memory_order_relaxed);
    ASSERT_LE(runs, 1u) << "job " << i << " ran twice";
    switch (outcomes[i]) {
      case Outcome::kCompleted:
        ASSERT_EQ(runs, 1u) << "completed job " << i << " never ran (lost)";
        ++completed;
        break;
      case Outcome::kRevoked:
        ASSERT_EQ(runs, 0u) << "revoked job " << i << " ran anyway";
        ++revoked;
        break;
      case Outcome::kAbandoned:
        ++abandoned;  // at-least-once caveat: 0 (worker died) or 1 (late run)
        break;
      case Outcome::kNotSubmitted:
        ASSERT_EQ(runs, 0u) << "unsubmitted job " << i << " ran";
        break;
    }
  }
  // Under heavy contention (or TSan) the exact mix shifts; the invariants
  // above are the point. Still, some jobs must have completed normally.
  EXPECT_GT(completed, kJobs / 8) << "suspiciously few clean completions";
  EXPECT_EQ(sum_cells(), pool.jobs_executed())
      << "every execution must be exactly one cell bump";
  // Accounting closes: abandons are resolved only through the worker's late
  // recycle or the watchdog scrub, never invented.
  EXPECT_LE(q.abandoned_recycles() + q.abandoned_scrubs(),
            q.abandoned_slots());
  (void)revoked;
  (void)abandoned;
}

// --- CallBatch ---

struct ValueOp {
  uint64_t i;
  uint64_t operator()() const { return i * 31 + 5; }
};

std::vector<ValueOp> ValueOps(uint64_t first, size_t n) {
  std::vector<ValueOp> ops(n);
  for (size_t j = 0; j < n; ++j) {
    ops[j].i = first + j;
  }
  return ops;
}

// The batch-aware ChargeSubmit formula: rendezvous (poll latency) and result
// read-back (dequeue) paid once per doorbell, enqueue + syscall per call.
uint64_t BatchCycles(const sim::CostModel& c, uint64_t n) {
  return (c.rpc_enqueue_cycles + c.syscall_cycles) * n +
         c.rpc_poll_latency_cycles + c.rpc_dequeue_cycles;
}

TEST(RpcBatch, BatchRoundTripsThroughRealWorkers) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 2,
                           .queue_capacity = 64});
  for (uint64_t round = 0; round < 50; ++round) {
    std::vector<ValueOp> ops = ValueOps(round * 8, 8);
    const std::vector<uint64_t> results = rpc.CallBatch(nullptr, 0, ops);
    ASSERT_EQ(results.size(), 8u);
    for (uint64_t j = 0; j < 8; ++j) {
      EXPECT_EQ(results[j], (round * 8 + j) * 31 + 5);
    }
  }
  EXPECT_EQ(rpc.calls(), 400u);
  EXPECT_EQ(rpc.fallback_ocalls(), 0u);
  const telemetry::Histogram* hist =
      machine.metrics().GetHistogram("rpc.batch_size");
  EXPECT_EQ(hist->count(), 50u);  // one doorbell per batch
  EXPECT_EQ(hist->sum(), 400u);
}

TEST(RpcBatch, OversizedBatchReusesItsOwnSlots) {
  // A batch of 8 on a 2-slot ring: each run is awaited, which frees its
  // slots, before the next run is published. A batch that spun for slots
  // its own finished jobs still hold (kDone until awaited) would time out
  // and fall back on 6 of the 8.
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 1,
                           .queue_capacity = 2,
                           .submit_spin_budget = 1 << 10});
  sim::CpuContext& cpu = machine.cpu(0);
  enclave.Enter(cpu);
  std::vector<ValueOp> ops = ValueOps(0, 8);
  const uint64_t t0 = cpu.clock.now();
  const std::vector<uint64_t> results = rpc.CallBatch(&cpu, 0, ops);
  const uint64_t delta = cpu.clock.now() - t0;
  enclave.Exit(cpu);
  for (uint64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(results[j], j * 31 + 5);
  }
  EXPECT_EQ(rpc.fallback_ocalls(), 0u);
  EXPECT_EQ(rpc.submit_timeouts(), 0u);
  EXPECT_EQ(delta, BatchCycles(machine.costs(), 8))
      << "one doorbell charge, whatever the ring occupancy";
}

TEST(RpcBatch, BreakerOpenShortCircuitsAtSubmitTime) {
  // kQueueFull on every submit: nothing is ever published, so each call
  // falls back through the submit-timeout path until the breaker opens.
  // With the breaker off, every element of every batch times out on its own.
  for (const bool breaker : {true, false}) {
    SCOPED_TRACE(breaker ? "breaker on" : "breaker off");
    sim::Machine machine;
    sim::Enclave enclave(machine);
    machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
    RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                             .use_cat = false,
                             .workers = 1,
                             .queue_capacity = 2,
                             .submit_spin_budget = 32,
                             .breaker_enabled = breaker});
    uint64_t first_batch_spins = 0;
    for (uint64_t b = 0; b < 5; ++b) {
      std::vector<ValueOp> ops = ValueOps(b * 4, 4);
      const std::vector<uint64_t> results = rpc.CallBatch(nullptr, 0, ops);
      for (uint64_t j = 0; j < 4; ++j) {
        EXPECT_EQ(results[j], (b * 4 + j) * 31 + 5) << "fallback still correct";
      }
      if (b == 0) {
        first_batch_spins = rpc.queue()->queue_full_spins();
      }
    }
    EXPECT_EQ(rpc.calls(), 20u);
    EXPECT_EQ(rpc.fallback_ocalls(), 20u);
    if (breaker) {
      // The first doorbell was admitted: each element timed out on its own
      // and the third timeout opened the breaker. Every later doorbell
      // short-circuited at admission, before touching the ring.
      EXPECT_EQ(rpc.submit_timeouts(), 4u);
      EXPECT_EQ(rpc.breaker_opens(), 1u);
      EXPECT_EQ(rpc.breaker_short_circuits(), 4u);
      EXPECT_EQ(rpc.queue()->queue_full_spins(), first_batch_spins)
          << "an open breaker must not spin on the ring";
    } else {
      EXPECT_EQ(rpc.submit_timeouts(), 20u);
      EXPECT_EQ(rpc.breaker_opens(), 0u);
    }
  }
}

TEST(RpcBatch, BatchChargeIsDeterministicAndAmortized) {
  // Inline mode: no threads, so the clock delta of one batch doorbell is
  // exactly the batch-aware ChargeSubmit formula.
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kInline, .use_cat = false});
  sim::CpuContext& cpu = machine.cpu(0);
  const sim::CostModel& c = machine.costs();
  enclave.Enter(cpu);

  const uint64_t t0 = cpu.clock.now();
  std::vector<ValueOp> ops = ValueOps(0, 8);
  const std::vector<uint64_t> results = rpc.CallBatch(&cpu, 0, ops);
  const uint64_t batch_delta = cpu.clock.now() - t0;
  for (uint64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(results[j], j * 31 + 5);
  }
  EXPECT_EQ(batch_delta, BatchCycles(c, 8));

  const uint64_t t1 = cpu.clock.now();
  rpc.Call(&cpu, 0, [] { return 1u; });
  const uint64_t serial_delta = cpu.clock.now() - t1;
  EXPECT_EQ(serial_delta, BatchCycles(c, 1));
  EXPECT_LT(batch_delta, 8 * serial_delta) << "batching must amortize";
  enclave.Exit(cpu);

  const telemetry::Histogram* hist =
      machine.metrics().GetHistogram("rpc.batch_size");
  EXPECT_EQ(hist->count(), 2u);  // one batch-8 doorbell + one serial call
  EXPECT_EQ(hist->sum(), 9u);
  EXPECT_EQ(rpc.calls(), 9u);
}

// Runs `rounds` of one Call and one CallBatch of 8 on a fresh manager and
// returns the virtual cycles they took.
uint64_t CallAndBatchCycles(RpcManager::Mode mode, int rounds) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = mode, .use_cat = false, .workers = 2});
  sim::CpuContext& cpu = machine.cpu(0);
  enclave.Enter(cpu);
  const uint64_t t0 = cpu.clock.now();
  for (int r = 0; r < rounds; ++r) {
    EXPECT_EQ(rpc.Call(&cpu, 64, [r] { return r + 1; }), r + 1);
    std::vector<ValueOp> ops = ValueOps(static_cast<uint64_t>(r) * 8, 8);
    EXPECT_EQ(rpc.CallBatch(&cpu, 64, ops).back(), ops.back()());
  }
  const uint64_t cycles = cpu.clock.now() - t0;
  enclave.Exit(cpu);
  EXPECT_EQ(rpc.fallback_ocalls(), 0u);
  // rpc.calls and rpc.call_cycles count the same calls, batched ones
  // included: validate_bench.py pairs them window by window.
  EXPECT_EQ(rpc.calls(), static_cast<uint64_t>(rounds) * 9);
  EXPECT_EQ(machine.metrics().GetHistogram("rpc.call_cycles")->count(),
            rpc.calls());
  return cycles;
}

TEST(RpcBatch, ThreadedClockMatchesInline) {
  // A healthy host completes every call exit-less, and waiting for it is
  // wall-clock time, never virtual time: the threaded manager's clock moves
  // exactly as the inline one's.
  const uint64_t inline_cycles =
      CallAndBatchCycles(RpcManager::Mode::kInline, 32);
  EXPECT_EQ(CallAndBatchCycles(RpcManager::Mode::kThreaded, 32),
            inline_cycles);
  const sim::CostModel costs;  // the default machine's
  EXPECT_EQ(inline_cycles,
            32 * (BatchCycles(costs, 1) + BatchCycles(costs, 8)));
}

// --- Consumers of the batched path ---

TEST(RpcBatchConsumers, EnclaveFsVectoredIoRoundTrips) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 2});
  libos::MemFs host;
  libos::EnclaveFs fs(enclave, host, libos::ExitMode::kRpc, &rpc);
  const int fd = fs.Open(nullptr, "/vec", libos::kRdWr | libos::kCreate);
  ASSERT_GE(fd, 0);

  const std::string a(100, 'a'), b(200, 'b'), c(50, 'c');
  const libos::ConstIoSlice wr[3] = {{a.data(), a.size(), 0},
                                     {b.data(), b.size(), 100},
                                     {c.data(), c.size(), 300}};
  ASSERT_EQ(fs.Pwritev(nullptr, fd, wr, 3), 350);

  char out_a[100], out_b[200], out_c[50];
  libos::IoSlice rd[3] = {{out_a, sizeof(out_a), 0},
                          {out_b, sizeof(out_b), 100},
                          {out_c, sizeof(out_c), 300}};
  ASSERT_EQ(fs.Preadv(nullptr, fd, rd, 3), 350);
  EXPECT_EQ(0, std::memcmp(out_a, a.data(), a.size()));
  EXPECT_EQ(0, std::memcmp(out_b, b.data(), b.size()));
  EXPECT_EQ(0, std::memcmp(out_c, c.data(), c.size()));
  EXPECT_EQ(fs.Close(nullptr, fd), 0);
  // Each slice is still one host syscall, but the RPC layer saw one doorbell
  // per vector: open, a 3-slice write, a 3-slice read, close.
  const telemetry::Histogram* hist =
      machine.metrics().GetHistogram("rpc.batch_size");
  EXPECT_EQ(hist->count(), 4u);
  EXPECT_EQ(hist->sum(), 8u);
  EXPECT_EQ(rpc.calls(), 8u);
  // A bad fd fails fast with the first error, not a partial total.
  EXPECT_EQ(fs.Preadv(nullptr, 99, rd, 3), libos::kMemFsError);
}

TEST(RpcBatchConsumers, KvCacheMultiOpsSendOneResponseEach) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  RpcManager rpc(enclave, {.mode = RpcManager::Mode::kThreaded,
                           .use_cat = false,
                           .workers = 2});
  apps::UntrustedRegion region(machine, 8 << 20);
  apps::KvCache::Options opts;
  opts.pool_bytes = 8 << 20;
  opts.rpc = &rpc;
  apps::KvCache cache(machine, region, opts);

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 6; ++i) {
    pairs.emplace_back("key-" + std::to_string(i),
                       std::string(120 + i, 'v'));
  }
  EXPECT_EQ(cache.MultiSet(nullptr, pairs), 6u);

  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back("key-" + std::to_string(i));
  }
  keys.push_back("absent");
  std::vector<std::vector<uint8_t>> values;
  EXPECT_EQ(cache.MultiGet(nullptr, keys, &values), 6u);
  ASSERT_EQ(values.size(), 7u);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(values[static_cast<size_t>(i)].size(), 120u + i);
    EXPECT_EQ(values[static_cast<size_t>(i)][0], 'v');
  }
  EXPECT_TRUE(values[6].empty());
  // One exit-less send per multi-op, as memcached answers "get k1 ... k7"
  // with one sendmsg: the 6 acks go out together, then the 7 responses.
  const telemetry::Histogram* hist =
      machine.metrics().GetHistogram("rpc.batch_size");
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_EQ(hist->sum(), 2u);
  EXPECT_EQ(rpc.calls(), 2u);
  EXPECT_EQ(cache.stats().get_hits, 6u);
}

}  // namespace
}  // namespace eleos::rpc
