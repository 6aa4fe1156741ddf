// Copyright (c) Eleos reproduction authors. MIT license.
//
// The shared job queue between enclave threads and untrusted RPC worker
// threads (paper §3.1).
//
// The queue lives in untrusted memory (here: ordinary heap). Synchronization
// is pure polling on atomic slot states — enclave threads cannot use OS
// mutexes/futexes without exiting, which is the whole point of the design.
// A slot carries a plain function pointer + argument pointer, mirroring the
// real system where the enclave enqueues "the pointer to the untrusted
// function and its parameters".
//
// Slot placement is O(1): submitters and workers each keep a monotonically
// advancing ring cursor (tail_ / head_) and probe from it, so the common case
// touches exactly one slot and concurrent submitters fan out across the ring
// instead of all CAS-ing slot 0. The cursors are hints, not ownership: a slot
// parked in a non-empty state (abandoned, awaiting release) is simply skipped
// by the probe, which preserves all revoke/abandon semantics of the per-slot
// state machine below.
//
// Hostile-host hardening, liveness: workers may stall forever, die holding a
// claimed slot, or never publish a completion. Submitters use bounded spin
// budgets with revoke/abandon on timeout (see AwaitAndRelease).
//
// Hostile-host hardening, *contents* (TOCTOU / Iago — DESIGN.md §12): every
// slot field lives in host-writable memory, so nothing read from a slot is
// trusted. Each JobSlot is therefore paired with an enclave-private
// ShadowSlot that is the AUTHORITY for the publication:
//
//  * SubmitRun records the payload (fn, arg, span_id, submit_tsc) in the
//    shadow and arms a generation-bound claim-once token (2·gen+1). The
//    shared slot only carries a host-visible mirror of the payload plus a
//    keyed integrity word over it.
//  * TryClaimBatch dispatches ONLY from the shadow. The shared mirror is
//    snapshotted exactly once and cross-checked (integrity word + field
//    equality) purely to DETECT scribbling — a mismatch parks the slot
//    kHostile and counts integrity_rejects; the scribbled values are never
//    used. The claim then consumes the token with a CAS: exactly one
//    claimant per publication can ever win, so a forged kReady over kRunning
//    (replaying a still-valid payload) loses the CAS, counts claim_replays,
//    and never receives the job pointer — even a job freed after a genuine
//    completion is unreachable from a replayed claim.
//  * All generation checks (await, Complete, scrub) read the shadow token,
//    never the host-writable gen mirror. A token that moves while a claim is
//    live (only hostile interleavings can cause that) resolves the wait to
//    WaitResult::kHostile and the slot is never trusted again — the
//    RpcManager falls back to the OCALL path.
//
// A scribbled slot can always deny service (park capacity, force fallbacks);
// it can never make the enclave run a forged function pointer, read a freed
// job, or return a wrong result.

#ifndef ELEOS_SRC_RPC_JOB_QUEUE_H_
#define ELEOS_SRC_RPC_JOB_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <random>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/spinlock.h"
#include "src/common/stats.h"
#include "src/common/untrusted.h"
#include "src/sim/fault_injector.h"
#include "src/telemetry/telemetry.h"

namespace eleos::rpc {

using UntrustedFn = void (*)(void* arg);

// Effectively-unbounded spin budget for callers that want the legacy
// wait-forever behaviour.
inline constexpr uint64_t kUnboundedSpins = UINT64_MAX;

enum class SlotState : uint32_t {
  kEmpty = 0,      // free for a submitter to claim
  kFilling = 1,    // transiently held by a submitter (publish or revoke)
  kReady = 2,      // job published, waiting for a worker
  kRunning = 3,    // a worker claimed it
  kDone = 4,       // result available; submitter must release back to kEmpty
  kAbandoned = 5,  // submitter timed out while a worker held the claim
  kHostile = 6,    // claim snapshot failed validation; awaiting reclaim
};
inline constexpr uint32_t kSlotStateCount = 7;

struct alignas(64) JobSlot {  // one cache line per slot: no false sharing
  std::atomic<SlotState> state{SlotState::kEmpty};
  std::atomic<uint64_t> gen{0};  // host-visible mirror of the shadow gen
  // Payload fields are relaxed atomics, not plain words: the host (modeled
  // by sim::ScribblerThread) writes them concurrently with enclave reads, so
  // plain fields would be data races in the C++ sense even though every read
  // is snapshot-validated. The atomics carry no ordering duty of their own —
  // publication order comes from the state word's release/acquire edge.
  std::atomic<uintptr_t> fn{0};
  std::atomic<uintptr_t> arg{0};
  // Causal-tracing context, written with fn/arg under the same kFilling ->
  // kReady publication: the submitter's innermost span id and its virtual
  // clock at submit time, so the claiming worker can emit its execution as a
  // child span inside the submitting call's interval. Both 0 when untraced.
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> submit_tsc{0};
  // Keyed checksum over (gen, fn, arg, span_id, submit_tsc), written at
  // publication. The key never leaves the enclave, so the host cannot forge
  // a matching word for scribbled payloads.
  std::atomic<uint64_t> integrity{0};
};

// A submitted (or claimed) job: the slot index plus the generation the slot
// had at publish time. All releases and completions are checked against it.
struct JobTicket {
  size_t slot = 0;
  uint64_t gen = 0;
};

class JobQueue {
 public:
  enum class WaitResult {
    kCompleted,  // job ran; slot released
    kRevoked,    // timed out before any worker claimed it; job will never run
    kAbandoned,  // timed out while a worker held it; job may still run late
    kHostile,    // the host scribbled our slot; job's fate unknowable here
  };

  // A claimed job with its tracing context, as drained by TryClaimBatch.
  // Every field comes from the enclave-private ShadowSlot — never from the
  // host-writable mirror — so workers dispatch only enclave truth.
  struct ClaimedJob {
    JobTicket ticket;
    UntrustedFn fn = nullptr;
    void* arg = nullptr;
    uint64_t span_id = 0;
    uint64_t submit_tsc = 0;
  };

  // `metrics` (optional) lists the queue's counters (Metrics()) with that
  // registry for the queue's lifetime.
  explicit JobQueue(size_t capacity = 64, sim::FaultInjector* faults = nullptr,
                    telemetry::Registry* metrics = nullptr)
      : slots_(capacity),
        shadows_(capacity),
        faults_(faults),
        secret_(EntropySecret()),
        cells_(metrics) {
    for (const auto& [name, counter] : Metrics()) {
      cells_.AddCounter(name, (this->*counter).cell());
    }
  }

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  // Submitter side: claims an empty slot and publishes the job. Spins with
  // exponential backoff (CpuRelax -> yield) while the queue is full; gives up
  // after `spin_budget` backoff rounds and returns false.
  bool TrySubmit(UntrustedFn fn, void* arg, JobTicket* ticket,
                 uint64_t spin_budget, uint64_t span_id = 0,
                 uint64_t submit_tsc = 0) {
    for (uint64_t spins = 0;; ++spins) {
      const bool injected_full =
          faults_ != nullptr && faults_->ShouldInject(sim::Fault::kQueueFull);
      if (!injected_full &&
          SubmitRun(&fn, &arg, ticket, 1, span_id, submit_tsc) == 1) {
        return true;
      }
      // Queue full: make the backpressure observable, then back off.
      queue_full_spins_.Inc();
      if (spins >= spin_budget) {
        return false;
      }
      Backoff(spins);
    }
  }

  // Submitter side, batched: publishes up to `n` jobs in one pass from the
  // tail cursor — one doorbell for the whole run, so workers draining with
  // TryClaimBatch pick the jobs up as a contiguous ready run. Returns the
  // number published (0 when the ring is full or backpressure is injected);
  // tickets[0..ret) are filled. Does NOT spin: the caller owns retry policy
  // for the unplaced remainder.
  size_t TrySubmitBatch(const UntrustedFn* fns, void* const* args,
                        JobTicket* tickets, size_t n, uint64_t span_id = 0,
                        uint64_t submit_tsc = 0) {
    if (n == 0) {
      return 0;
    }
    if (faults_ != nullptr && faults_->ShouldInject(sim::Fault::kQueueFull)) {
      queue_full_spins_.Inc();
      return 0;
    }
    const size_t published = SubmitRun(fns, args, tickets, n, span_id,
                                       submit_tsc);
    if (published == 0) {
      queue_full_spins_.Inc();
    }
    return published;
  }

  // Legacy unbounded submit.
  JobTicket Submit(UntrustedFn fn, void* arg) {
    JobTicket ticket;
    TrySubmit(fn, arg, &ticket, kUnboundedSpins);
    return ticket;
  }

  // Submitter side: spin until the job completes, then release the slot.
  // Gives up after `spin_budget` spins: a still-unclaimed job is revoked
  // (its claim token is consumed, so even a forged kReady can never dispatch
  // it afterwards — but a claim that raced the revoke under forged state may
  // already have won the token, so revoked jobs are still treated as may-run
  // by RpcManager's quarantine), an in-flight job is abandoned (the worker's
  // eventual token-checked Complete recycles the slot). kHostile means the
  // host scribbled this claim's shared state: the job's fate cannot be
  // determined from shared memory and the caller must fail closed.
  WaitResult AwaitAndRelease(JobTicket ticket, uint64_t spin_budget) {
    JobSlot& s = slots_[ticket.slot];
    ShadowSlot& sh = shadows_[ticket.slot];
    WaitResult resolved;
    for (uint64_t spins = 0; spins <= spin_budget; ++spins) {
      if (PollResolved(s, sh, ticket, &resolved)) {
        return resolved;
      }
      CpuRelax();
    }
    // Timed out. Try to revoke before any worker claims it.
    SlotState expected = SlotState::kReady;
    if (s.state.compare_exchange_strong(expected, SlotState::kFilling,
                                        std::memory_order_acquire)) {
      const uint64_t tok = sh.token.load(std::memory_order_acquire);
      if ((tok >> 1) != ticket.gen || (tok & 1) == 0) {
        // Either the kReady we took was not our publication (a forged kEmpty
        // let the slot be recycled under us), or our claim token was already
        // consumed under a forged kReady (a worker is running the job even
        // though the state word said otherwise). Fail closed. The put-back
        // is CAS-guarded from kFilling so it can never clobber a slot some
        // other actor has since transitioned — a blind store here could
        // resurrect a released slot as a stale kReady.
        SlotState fill = SlotState::kFilling;
        s.state.compare_exchange_strong(
            fill,
            (tok >> 1) == ticket.gen ? SlotState::kRunning : SlotState::kReady,
            std::memory_order_release);
        hostile_gen_races_.Inc();
        return WaitResult::kHostile;
      }
      Release(s, sh, ticket.gen);
      return WaitResult::kRevoked;
    }
    // A worker holds the claim (or just finished). Try to abandon.
    expected = SlotState::kRunning;
    if (s.state.compare_exchange_strong(expected, SlotState::kAbandoned,
                                        std::memory_order_acq_rel)) {
      abandoned_slots_.Inc();
      return WaitResult::kAbandoned;
    }
    // Lost both races. An honest worker published kDone in between — but the
    // slot state lives in untrusted memory, so a hostile host can park it in
    // any value and the historical wait-for-kDone loop here would wedge the
    // enclave forever. Re-check under the same bounded budget instead.
    for (uint64_t spins = 0; spins <= spin_budget; ++spins) {
      if (PollResolved(s, sh, ticket, &resolved)) {
        return resolved;
      }
      SlotState st = s.state.load(std::memory_order_acquire);
      if (st == SlotState::kRunning &&
          s.state.compare_exchange_strong(st, SlotState::kAbandoned,
                                          std::memory_order_acq_rel)) {
        abandoned_slots_.Inc();
        return WaitResult::kAbandoned;
      }
      CpuRelax();
    }
    // Budget exhausted: force the slot to kAbandoned so a late honest
    // Complete (or the watchdog scrub) recycles it, taking kDone/kHostile if
    // one lands first. Never wait unboundedly on host-controlled state.
    for (;;) {
      if (PollResolved(s, sh, ticket, &resolved)) {
        return resolved;
      }
      SlotState cur = s.state.load(std::memory_order_acquire);
      if (cur == SlotState::kDone || cur == SlotState::kHostile) {
        continue;  // let PollResolved take it with the generation guard
      }
      if (s.state.compare_exchange_weak(cur, SlotState::kAbandoned,
                                        std::memory_order_acq_rel)) {
        terminal_abandons_.Inc();
        abandoned_slots_.Inc();
        return WaitResult::kAbandoned;
      }
    }
  }

  void AwaitAndRelease(JobTicket ticket) {
    AwaitAndRelease(ticket, kUnboundedSpins);
  }

  // Worker side: claims one ready job, or returns false. On true, the worker
  // must call Complete(ticket) after running the job. The optional outs
  // surface the submitter's tracing context (0 when untraced).
  bool TryClaim(JobTicket* ticket, UntrustedFn* fn_out, void** arg_out,
                uint64_t* span_id_out = nullptr,
                uint64_t* submit_tsc_out = nullptr) {
    ClaimedJob job;
    if (TryClaimBatch(&job, 1) != 1) {
      return false;
    }
    *ticket = job.ticket;
    *fn_out = job.fn;
    *arg_out = job.arg;
    if (span_id_out != nullptr) {
      *span_id_out = job.span_id;
    }
    if (submit_tsc_out != nullptr) {
      *submit_tsc_out = job.submit_tsc;
    }
    return true;
  }

  // Worker side, batched: claims up to `max_n` ready jobs in one pass from
  // the head cursor — the first ready slot found, then the contiguous run of
  // ready slots after it (a batch published under one doorbell drains in one
  // claim). Returns the number claimed; the worker must Complete each.
  //
  // Dispatch is from the enclave-private shadow only (see file header). The
  // shared mirror is snapshotted once and cross-checked purely for
  // double-fetch DETECTION; a mismatch parks the slot kHostile without
  // running anything. The claim-once token CAS then guarantees at most one
  // claimant per publication, so a replayed claim (forged kReady over
  // kRunning) can never obtain the job pointer — in particular never a
  // pointer to a job the submitter has since freed.
  size_t TryClaimBatch(ClaimedJob* out, size_t max_n) {
    const size_t cap = slots_.size();
    const uint64_t start = head_.load(std::memory_order_relaxed);
    size_t claimed = 0;
    size_t probed = 0;
    for (; probed < cap && claimed < max_n; ++probed) {
      const size_t idx = (start + probed) % cap;
      JobSlot& s = slots_[idx];
      ShadowSlot& sh = shadows_[idx];
      SlotState expected = SlotState::kReady;
      if (s.state.compare_exchange_strong(expected, SlotState::kRunning,
                                          std::memory_order_acquire)) {
        const uint64_t tok = sh.token.load(std::memory_order_acquire);
        if ((tok & 1) == 0) {
          // kReady with no live publication behind it: a forged state word
          // replaying an already-consumed claim (or a never-published slot).
          claim_replays_.Inc();
          s.state.store(SlotState::kHostile, std::memory_order_release);
          continue;
        }
        const uint64_t gen = tok >> 1;
        // --- Enclave truth: the payload we will dispatch. ---
        const uintptr_t fn = sh.fn.load(std::memory_order_relaxed);
        const uintptr_t arg = sh.arg.load(std::memory_order_relaxed);
        const uint64_t span_id = sh.span_id.load(std::memory_order_relaxed);
        const uint64_t submit_tsc =
            sh.submit_tsc.load(std::memory_order_relaxed);
        // --- Shared mirror: one read per field, detection only. ---
        const uint64_t m_gen = s.gen.load(std::memory_order_relaxed);
        const uintptr_t m_fn = s.fn.load(std::memory_order_relaxed);
        const uintptr_t m_arg = s.arg.load(std::memory_order_relaxed);
        const uint64_t m_span = s.span_id.load(std::memory_order_relaxed);
        const uint64_t m_tsc = s.submit_tsc.load(std::memory_order_relaxed);
        const uint64_t m_tag = s.integrity.load(std::memory_order_relaxed);
        if (fn == 0 || m_gen != gen || m_fn != fn || m_arg != arg ||
            m_span != span_id || m_tsc != submit_tsc ||
            m_tag != SlotIntegrity(m_gen, m_fn, m_arg, m_span, m_tsc)) {
          // Scribbled between publish and claim (double fetch caught). Park
          // the slot; the submitter's token-guarded wait reclaims it. The
          // token stays live, so an honest retry of the same publication can
          // still dispatch if the submitter has not reclaimed it yet.
          integrity_rejects_.Inc();
          s.state.store(SlotState::kHostile, std::memory_order_release);
          continue;
        }
        // Claim-once: consume the publication's token. Odd token values are
        // unique across a slot's lifetime (generations only grow), so this
        // CAS succeeding proves the publication was live from our token load
        // until now — the shadow reads above were this generation's payload
        // — and that no other claimant (replayed or otherwise) won it.
        uint64_t live = tok;
        if (!sh.token.compare_exchange_strong(live, gen << 1,
                                              std::memory_order_acq_rel)) {
          claim_replays_.Inc();
          s.state.store(SlotState::kHostile, std::memory_order_release);
          continue;
        }
        ClaimedJob& job = out[claimed++];
        job.ticket.slot = idx;
        job.ticket.gen = gen;
        job.fn = reinterpret_cast<UntrustedFn>(fn);
        job.arg = reinterpret_cast<void*>(arg);
        job.span_id = span_id;
        job.submit_tsc = submit_tsc;
      } else if (claimed > 0) {
        break;  // end of the ready run; hint stays at the non-ready slot
      }
    }
    if (claimed > 0) {
      // Racy hint: concurrent workers may clobber each other's store, which
      // only costs extra probes on the next claim, never correctness.
      head_.store(start + probed, std::memory_order_relaxed);
    }
    return claimed;
  }

  // Worker side: publishes completion. Token-checked — a completion for a
  // slot that has since been recycled past our generation is dropped
  // (stale_completions), and a completion for an abandoned but not yet
  // recycled slot recycles it (abandoned_recycles).
  void Complete(JobTicket ticket) {
    JobSlot& s = slots_[ticket.slot];
    ShadowSlot& sh = shadows_[ticket.slot];
    if (sh.token.load(std::memory_order_acquire) >> 1 != ticket.gen) {
      stale_completions_.Inc();  // stale: the slot moved on without us
      return;
    }
    SlotState expected = SlotState::kRunning;
    if (s.state.compare_exchange_strong(expected, SlotState::kDone,
                                        std::memory_order_release)) {
      return;
    }
    if (expected == SlotState::kAbandoned) {
      // The submitter gave up on us; recycle the slot ourselves.
      abandoned_recycles_.Inc();
      Release(s, sh, ticket.gen);
    } else if (expected == SlotState::kEmpty) {
      // Released (our generation's token consumed, state recycled) between
      // our token check and the CAS: the completion is stale all the same.
      stale_completions_.Inc();
    }
  }

  // Watchdog side: recycles an abandoned slot whose claiming worker died
  // before its Complete could run — without this the slot would stay
  // kAbandoned forever, permanently shrinking capacity. Token-checked: only
  // the exact claim the dead worker held is scrubbed. Returns true when the
  // ticket needs no further tracking (scrubbed, or the slot moved on by
  // itself); false while the slot is still in flight (e.g. kRunning because
  // the submitter has not yet timed out) and should be re-checked later.
  bool ScrubAbandoned(JobTicket ticket) {
    JobSlot& s = slots_[ticket.slot];
    ShadowSlot& sh = shadows_[ticket.slot];
    if (sh.token.load(std::memory_order_acquire) >> 1 != ticket.gen) {
      return true;  // already recycled through some other path
    }
    SlotState expected = SlotState::kAbandoned;
    if (s.state.compare_exchange_strong(expected, SlotState::kFilling,
                                        std::memory_order_acq_rel)) {
      abandoned_scrubs_.Inc();
      Release(s, sh, ticket.gen);
      return true;
    }
    return false;
  }

  // Adversary hook, driven by sim::ScribblerThread while kSharedMemScribbler
  // is armed: models the hostile host storing one garbage value into a
  // random piece of live shared state — a slot field (including forged-valid
  // state words) or a ring cursor hint. All stores are relaxed atomics so
  // the hostility is in the VALUES, not in C++-level data races. The shadow
  // slots are enclave-private and therefore out of the host's reach.
  void HostileScribble(uint64_t rnd) {
    if ((rnd & 0x7) == 7) {
      // Ring cursor hints: never authoritative, so garbage here may only
      // cost probes.
      (rnd & 0x8 ? head_ : tail_).store(rnd >> 32, std::memory_order_relaxed);
      return;
    }
    JobSlot& s = slots_[(rnd >> 8) % slots_.size()];
    switch ((rnd >> 3) % 7) {
      case 0:
        // Any state word, in-range forged transitions included (kReady over
        // kRunning enables bogus revokes and replayed claims, kDone over
        // kRunning forges completions, kEmpty over kReady invites double
        // publication) plus out-of-range values.
        s.state.store(static_cast<SlotState>((rnd >> 40) % 9),
                      std::memory_order_relaxed);
        break;
      case 1:
        s.gen.store(rnd >> 13, std::memory_order_relaxed);
        break;
      case 2:
        s.fn.store(rnd | 1, std::memory_order_relaxed);  // garbage code ptr
        break;
      case 3:
        s.arg.store(rnd >> 5, std::memory_order_relaxed);
        break;
      case 4:
        s.span_id.store(rnd >> 7, std::memory_order_relaxed);
        break;
      case 5:
        s.submit_tsc.store(rnd >> 11, std::memory_order_relaxed);
        break;
      case 6:
        s.integrity.store(rnd * 0x9e3779b97f4a7c15ull,
                          std::memory_order_relaxed);
        break;
    }
  }

  // Test-only hostile-host hook: models the untrusted host scribbling an
  // arbitrary value into a slot's state word.
  void HostileWriteStateForTest(size_t slot, SlotState state) {
    slots_[slot].state.store(state, std::memory_order_release);
  }

  size_t capacity() const { return slots_.size(); }

  // Observability for the hardening paths.
  uint64_t queue_full_spins() const { return queue_full_spins_.value(); }
  uint64_t abandoned_slots() const { return abandoned_slots_.value(); }
  // Worker-side completions that arrived after the submitter moved on, split
  // by what they found: a recycled slot (generation mismatch, dropped) vs. an
  // abandoned slot (recycled by the worker itself).
  uint64_t stale_completions() const { return stale_completions_.value(); }
  uint64_t abandoned_recycles() const { return abandoned_recycles_.value(); }
  // Awaits that exhausted the bounded terminal re-check and force-abandoned
  // host-controlled slot state (hostile hosts only; always 0 honest).
  uint64_t terminal_abandons() const { return terminal_abandons_.value(); }
  // Abandoned slots recycled by the watchdog on behalf of dead workers.
  uint64_t abandoned_scrubs() const { return abandoned_scrubs_.value(); }
  // Boundary-violation observability (all zero under an honest host):
  // claim snapshots whose shared mirror failed validation (double fetch
  // caught),
  uint64_t integrity_rejects() const { return integrity_rejects_.value(); }
  // claims on a forged kReady that lost (or never had) the claim-once token
  // — the replay attack that used to be a use-after-free vector,
  uint64_t claim_replays() const { return claim_replays_.value(); }
  // generations that moved under a live claim (third-party recycling),
  uint64_t hostile_gen_races() const { return hostile_gen_races_.value(); }
  // and kHostile parks reclaimed by their submitter.
  uint64_t hostile_reclaims() const { return hostile_reclaims_.value(); }

  // The queue's counters by registry name; boundary.double_fetch_races
  // (DESIGN.md §12) sums the three double-fetch detections.
  using Metric = std::pair<const char*, Counter JobQueue::*>;
  static std::span<const Metric> Metrics() {
    static constexpr Metric kMetrics[] = {
        {"rpc.queue_full_spins", &JobQueue::queue_full_spins_},
        {"rpc.stale_completions", &JobQueue::stale_completions_},
        {"rpc.abandoned_recycles", &JobQueue::abandoned_recycles_},
        {"rpc.abandoned_slots", &JobQueue::abandoned_slots_},
        {"rpc.terminal_abandons", &JobQueue::terminal_abandons_},
        {"rpc.abandoned_scrubs", &JobQueue::abandoned_scrubs_},
        {"rpc.integrity_rejects", &JobQueue::integrity_rejects_},
        {"rpc.claim_replays", &JobQueue::claim_replays_},
        {"rpc.hostile_gen_races", &JobQueue::hostile_gen_races_},
        {"rpc.hostile_reclaims", &JobQueue::hostile_reclaims_},
        {"boundary.double_fetch_races", &JobQueue::integrity_rejects_},
        {"boundary.double_fetch_races", &JobQueue::claim_replays_},
        {"boundary.double_fetch_races", &JobQueue::hostile_gen_races_},
    };
    return kMetrics;
  }

 private:
  // Enclave-private authority for one slot's live publication. The host can
  // scribble every JobSlot field; it can never reach this struct. Fields are
  // relaxed atomics because forged state words can defeat the kFilling
  // mutual exclusion and let two enclave-side actors touch a shadow
  // concurrently — the token CAS protocol keeps that safe; the atomics just
  // keep it defined behaviour.
  struct alignas(64) ShadowSlot {
    // 2·gen+1 = publication for `gen` is live and unclaimed; even = none.
    // Odd values never repeat (generations only grow), which is what makes
    // the claim CAS in TryClaimBatch an exactly-once consumption.
    std::atomic<uint64_t> token{0};
    std::atomic<uintptr_t> fn{0};
    std::atomic<uintptr_t> arg{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> submit_tsc{0};
  };

  // SplitMix64 finalizer: the diffusion step for the slot integrity word.
  static uint64_t MixBits(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  // The integrity key must come from entropy the host can neither observe
  // nor predict: anything derived from addresses or binary constants can be
  // recomputed by a host that maps enclave memory and knows the binary
  // (ASLR is brute-forceable), turning the keyed checksum into a forgeable
  // one. Models the enclave's RDRAND-backed in-enclave key generation.
  static uint64_t EntropySecret() {
    std::random_device rd;
    uint64_t s = (static_cast<uint64_t>(rd()) << 32) | rd();
    s ^= static_cast<uint64_t>(rd());
    return MixBits(s) | 1;  // never zero
  }

  // Keyed checksum over the slot payload mirror. The key is enclave-private,
  // so a host that rewrites any payload field cannot produce the matching
  // word.
  uint64_t SlotIntegrity(uint64_t gen, uintptr_t fn, uintptr_t arg,
                         uint64_t span_id, uint64_t submit_tsc) const {
    uint64_t h = secret_;
    h = MixBits(h ^ gen);
    h = MixBits(h ^ fn);
    h = MixBits(h ^ arg);
    h = MixBits(h ^ span_id);
    h = MixBits(h ^ submit_tsc);
    return h;
  }

  // One poll step shared by every wait loop in AwaitAndRelease: resolves our
  // kDone, our kHostile park, and third-party recycling (the shadow token
  // moved while our claim was live — only hostile interleavings can cause
  // that, and the slot must never be trusted again once it has). Returns
  // true with `*out` set when the wait is over.
  bool PollResolved(JobSlot& s, ShadowSlot& sh, const JobTicket& ticket,
                    WaitResult* out) {
    const SlotState st = s.state.load(std::memory_order_acquire);
    const uint64_t tok = sh.token.load(std::memory_order_acquire);
    if ((tok >> 1) != ticket.gen) {
      hostile_gen_races_.Inc();
      *out = WaitResult::kHostile;
      return true;
    }
    if (st == SlotState::kDone) {
      Release(s, sh, ticket.gen);
      *out = WaitResult::kCompleted;
      return true;
    }
    if (st == SlotState::kHostile) {
      SlotState expected = SlotState::kHostile;
      if (s.state.compare_exchange_strong(expected, SlotState::kFilling,
                                          std::memory_order_acq_rel)) {
        hostile_reclaims_.Inc();
        Release(s, sh, ticket.gen);
        *out = WaitResult::kHostile;
        return true;
      }
    }
    return false;
  }

  // Claims up to `n` empty slots starting at the tail cursor and publishes
  // one job into each. Single O(capacity) worst-case pass, O(1) common case:
  // the cursor points at the next expected-empty slot, and parked slots
  // (ready/running/abandoned/hostile) are skipped, not waited on.
  size_t SubmitRun(const UntrustedFn* fns, void* const* args,
                   JobTicket* tickets, size_t n, uint64_t span_id,
                   uint64_t submit_tsc) {
    const size_t cap = slots_.size();
    const uint64_t start = tail_.load(std::memory_order_relaxed);
    size_t published = 0;
    size_t probed = 0;
    for (; probed < cap && published < n; ++probed) {
      const size_t idx = (start + probed) % cap;
      JobSlot& s = slots_[idx];
      ShadowSlot& sh = shadows_[idx];
      SlotState expected = SlotState::kEmpty;
      if (s.state.compare_exchange_strong(expected, SlotState::kFilling,
                                          std::memory_order_acquire)) {
        // The generation is enclave truth, derived from the shadow token —
        // never from the host-writable gen mirror.
        uint64_t prev = sh.token.load(std::memory_order_acquire);
        const uint64_t gen = (prev >> 1) + 1;
        const uintptr_t fn = reinterpret_cast<uintptr_t>(fns[published]);
        const uintptr_t arg = reinterpret_cast<uintptr_t>(args[published]);
        sh.fn.store(fn, std::memory_order_relaxed);
        sh.arg.store(arg, std::memory_order_relaxed);
        sh.span_id.store(span_id, std::memory_order_relaxed);
        sh.submit_tsc.store(submit_tsc, std::memory_order_relaxed);
        // Arm the claim-once token. CAS, not a blind store: if a forged
        // kEmpty let two submitters into the same slot, only one publication
        // wins and the loser withdraws — the token must never go backwards.
        if (!sh.token.compare_exchange_strong(prev, (gen << 1) | 1,
                                              std::memory_order_acq_rel)) {
          SlotState fill = SlotState::kFilling;
          s.state.compare_exchange_strong(fill, SlotState::kEmpty,
                                          std::memory_order_release);
          continue;
        }
        // Host-visible mirror + keyed integrity word, for double-fetch
        // detection at claim time. Dispatch never reads these.
        s.gen.store(gen, std::memory_order_relaxed);
        s.fn.store(fn, std::memory_order_relaxed);
        s.arg.store(arg, std::memory_order_relaxed);
        s.span_id.store(span_id, std::memory_order_relaxed);
        s.submit_tsc.store(submit_tsc, std::memory_order_relaxed);
        s.integrity.store(SlotIntegrity(gen, fn, arg, span_id, submit_tsc),
                          std::memory_order_relaxed);
        tickets[published].slot = idx;
        tickets[published].gen = gen;
        s.state.store(SlotState::kReady, std::memory_order_release);
        ++published;
      }
    }
    if (published > 0) {
      // Racy hint, same contract as head_ in TryClaimBatch.
      tail_.store(start + probed, std::memory_order_relaxed);
    }
    return published;
  }

  // Retires `gen`'s publication and reopens the slot. The token CAS consumes
  // a still-live claim token (revoke path) and is a no-op if a claimant (or
  // an earlier release) already consumed it; it can never regress a token
  // some later publication has since advanced.
  void Release(JobSlot& s, ShadowSlot& sh, uint64_t gen) {
    uint64_t live = (gen << 1) | 1;
    sh.token.compare_exchange_strong(live, gen << 1,
                                     std::memory_order_acq_rel);
    // Bump the shared gen mirror before reopening the slot, mirroring the
    // real layout's recycle signal (enclave logic only trusts the token).
    s.gen.fetch_add(1, std::memory_order_release);
    s.state.store(SlotState::kEmpty, std::memory_order_release);
  }

  static void Backoff(uint64_t round) {
    if (round < 10) {
      for (uint64_t i = 0; i < (1ull << round); ++i) {
        CpuRelax();
      }
    } else {
      std::this_thread::yield();
    }
  }

  std::vector<JobSlot> slots_;
  // Enclave-private shadow of each slot's live publication (never exported,
  // never scribbled — see ShadowSlot).
  std::vector<ShadowSlot> shadows_;
  sim::FaultInjector* faults_;
  // Enclave-private key for the slot integrity word (never exported).
  const uint64_t secret_;
  // Ring cursors: where the next submit (tail_) / claim (head_) probe starts.
  // Monotonic position hints reduced mod capacity; never authoritative.
  std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> head_{0};
  Counter queue_full_spins_;
  Counter stale_completions_;
  Counter abandoned_recycles_;
  Counter abandoned_slots_;
  Counter terminal_abandons_;
  Counter abandoned_scrubs_;
  Counter integrity_rejects_;
  Counter claim_replays_;
  Counter hostile_gen_races_;
  Counter hostile_reclaims_;
  telemetry::CellList cells_;  // after the counters it lists
};

}  // namespace eleos::rpc

#endif  // ELEOS_SRC_RPC_JOB_QUEUE_H_
