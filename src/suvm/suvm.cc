// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/suvm/suvm.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

#include "src/crypto/sha256.h"
#include "src/sim/machine.h"

namespace eleos::suvm {
namespace {

// AAD layouts binding sealed records to their location (block-swap defense).
struct PageAad {
  uint64_t bs_page;
};
struct SubAad {
  uint64_t bs_page;
  uint64_t sub;
};

constexpr char kQuarantinedMsg[] =
    "Suvm: page quarantined (persistent corruption; TryRestorePage to recover)";

// Stable synthetic vaddr for a backing-store arena offset. Cache/TLB charges
// must be a pure function of the simulated access pattern: the host heap
// address of the arena varies run to run (and between instances in the same
// process), which would leak nondeterminism into virtual cycle counts via
// LLC set mapping. Enclave vaddrs top out well below this base.
constexpr uint64_t kBackingVaddrBase = 1ull << 47;
inline uint64_t BackingVaddr(uint64_t arena_off) {
  return kBackingVaddrBase + arena_off;
}

// Stable synthetic vaddr for the write-ahead journal region (untrusted
// memory, modeled as a bounded append ring for cache purposes). Sits below
// the arena base and clear of the driver's sealed-blob ranges.
constexpr uint64_t kJournalVaddrBase = 3ull << 45;
constexpr uint64_t kJournalVaddrSlots = 4096;
inline uint64_t JournalVaddr(uint64_t seq) {
  return kJournalVaddrBase + (seq % kJournalVaddrSlots) * sim::kPageSize;
}

// Sealed-root serialization (SealCheckpoint / TryRecover). Plain structs
// memcpy'd into the blob: producer and consumer are the same build, and the
// whole blob is MAC'd, so no interchange format is needed.
constexpr uint64_t kRootMagic = 0x454c45'4f53'524f'4full;  // "ELEOSRO"+1
constexpr uint32_t kRootFormat = 1;
struct RootHeader {
  uint64_t magic = 0;
  uint32_t format = 0;
  uint32_t reserved = 0;
  uint64_t freshness = 0;    // platform monotonic counter at checkpoint
  uint64_t journal_seq = 0;  // replay journal records with seq >= this
  uint64_t entry_count = 0;
};
struct RootEntry {
  uint64_t bs_page = 0;
  uint64_t version = 0;
  uint32_t flags = 0;  // bit 0: has_data, bit 1: poisoned
  uint8_t nonce[crypto::kGcmNonceSize] = {};
  uint8_t tag[crypto::kGcmTagSize] = {};
};
constexpr uint32_t kRootHasData = 1u << 0;
constexpr uint32_t kRootPoisoned = 1u << 1;

static_assert(kJournalNonceSize == crypto::kGcmNonceSize,
              "journal nonce size must match GCM");
static_assert(kJournalTagSize == crypto::kGcmTagSize,
              "journal tag size must match GCM");

constexpr char kCrashedMsg[] =
    "Suvm: host process crashed (recover into a fresh instance)";

}  // namespace

Suvm::Suvm(sim::Enclave& enclave, SuvmConfig config)
    : Suvm(enclave, config, nullptr) {}

Suvm::Suvm(sim::Enclave& enclave, SuvmConfig config,
           std::shared_ptr<BackingStore> store)
    : enclave_(&enclave),
      config_(config),
      subpages_per_page_(sim::kPageSize / config.subpage_size),
      faults_(&enclave.machine().fault_injector()),
      store_(store != nullptr
                 ? std::move(store)
                 : std::make_shared<BackingStore>(BackingStore::Config{
                       .capacity_bytes = config.backing_bytes})),
      cache_(enclave, config.epc_pp_pages),
      sealer_(crypto::DeriveAesKey("suvm-app-key", config.key_seed).data()),
      slot_to_page_(config.epc_pp_pages),
      nonce_rng_(config.key_seed ^ 0x9e3779b97f4a7c15ull),
      alloc_health_(HealthFsm::Options{config.alloc_failure_threshold,
                                       config.alloc_probe_interval}),
      major_fault_cycles_(
          enclave.machine().metrics().GetHistogram("suvm.major_fault_cycles")),
      minor_fault_cycles_(
          enclave.machine().metrics().GetHistogram("suvm.minor_fault_cycles")),
      evict_scan_len_(
          enclave.machine().metrics().GetHistogram("suvm.evict_scan_len")),
      checkpoint_cycles_(
          enclave.machine().metrics().GetHistogram("suvm.checkpoint_cycles")),
      recover_cycles_(
          enclave.machine().metrics().GetHistogram("suvm.recover_cycles")),
      direct_read_bytes_(
          enclave.machine().metrics().GetCounter("suvm.direct_read_bytes")),
      direct_write_bytes_(
          enclave.machine().metrics().GetCounter("suvm.direct_write_bytes")),
      trace_(&enclave.machine().metrics().trace()) {
  if (sim::kPageSize % config.subpage_size != 0) {
    throw std::invalid_argument("Suvm: subpage_size must divide the page size");
  }
  for (std::atomic<uint64_t>& entry : slot_to_page_) {
    entry.store(kInvalidAddr, std::memory_order_relaxed);
  }
  if (config.crash_consistency && config.direct_mode) {
    throw std::invalid_argument(
        "Suvm: crash_consistency requires whole-page mode (no direct_mode)");
  }
  if (store_->capacity() != config.backing_bytes) {
    throw std::invalid_argument(
        "Suvm: adopted backing store does not match config.backing_bytes");
  }
  // The inverse page table: one small entry per EPC++ page (paper §4.1).
  ipt_region_vaddr_ = enclave_->Alloc(config.epc_pp_pages * 16);
  // The crypto-metadata table: one entry per backing-store page. It "may
  // grow fairly large" and is natively evictable under PRM pressure.
  meta_entries_ = config.backing_bytes / sim::kPageSize;
  const size_t meta_entry_bytes = config.direct_mode ? 160 : 48;
  meta_region_vaddr_ = enclave_->Alloc(meta_entries_ * meta_entry_bytes);
  publisher_id_ =
      enclave_->machine().AddPublisher([this] { PublishTelemetry(); });
  // SLO watchdog rule + flight-recorder health source (both machine-owned
  // registries outlive this object; the destructor unregisters).
  {
    telemetry::SloRule rule;
    rule.name = "suvm.major_fault_p99";
    rule.kind = telemetry::SloRule::Kind::kHistogramP99;
    rule.metric = "suvm.major_fault_cycles";
    rule.threshold = config.slo_major_fault_p99_cycles;
    slo_fault_rule_ = enclave_->machine().metrics().timeline().AddRule(rule);
  }
  flight_health_source_ =
      enclave_->machine().metrics().flight().AddHealthSource(
          "suvm.alloc", [this] {
            return std::string(HealthStateName(alloc_health_.state()));
          });
}

Suvm::~Suvm() {
  enclave_->machine().metrics().timeline().RemoveRule(slo_fault_rule_);
  enclave_->machine().metrics().flight().RemoveHealthSource(
      flight_health_source_);
  enclave_->machine().RemovePublisher(publisher_id_);
}

void Suvm::ResetStats() {
  stats_.major_faults = 0;
  stats_.minor_faults = 0;
  stats_.evictions = 0;
  stats_.writebacks = 0;
  stats_.clean_drops = 0;
  stats_.direct_reads = 0;
  stats_.direct_writes = 0;
  stats_.mac_failures = 0;
  stats_.rollbacks_detected = 0;
  stats_.retries = 0;
  stats_.alloc_failures = 0;
  stats_.pages_quarantined = 0;
  stats_.quarantine_hits = 0;
  stats_.pages_restored = 0;
  stats_.degraded_rejects = 0;
  stats_.journal_appends = 0;
  stats_.journal_commits = 0;
  stats_.checkpoints = 0;
  stats_.host_crashes = 0;
  stats_.recovery_attempts = 0;
  stats_.recovery_pages_verified = 0;
  stats_.recovery_pages_quarantined = 0;
  stats_.recovery_journal_replayed = 0;
  stats_.recovery_journal_torn = 0;
  stats_.recovery_rollbacks = 0;
  stats_.fault_coalesced = 0;
  stats_.gate_wait_cycles = 0;
  stats_.prefetch_issued = 0;
  stats_.prefetch_hits = 0;
  stats_.prefetch_wasted = 0;
}

void Suvm::ThrowStatus(const Status& status) {
  throw std::runtime_error(status.message());
}

size_t Suvm::PageTableEntries() const {
  size_t n = 0;
  for (const Stripe& st : stripes_) {
    std::lock_guard sl(st.lock);
    n += st.map.size();
  }
  return n;
}

void Suvm::PublishTelemetry() {
  telemetry::Registry& r = enclave_->machine().metrics();
  r.GetCounter("suvm.major_faults")->Set(stats_.major_faults.load());
  r.GetCounter("suvm.minor_faults")->Set(stats_.minor_faults.load());
  r.GetCounter("suvm.evictions")->Set(stats_.evictions.load());
  r.GetCounter("suvm.writebacks")->Set(stats_.writebacks.load());
  r.GetCounter("suvm.clean_drops")->Set(stats_.clean_drops.load());
  r.GetCounter("suvm.direct_reads")->Set(stats_.direct_reads.load());
  r.GetCounter("suvm.direct_writes")->Set(stats_.direct_writes.load());
  r.GetCounter("suvm.mac_failures")->Set(stats_.mac_failures.load());
  r.GetCounter("suvm.rollbacks_detected")->Set(stats_.rollbacks_detected.load());
  r.GetCounter("suvm.retries")->Set(stats_.retries.load());
  r.GetCounter("suvm.alloc_failures")->Set(stats_.alloc_failures.load());
  r.GetCounter("suvm.pages_quarantined")->Set(stats_.pages_quarantined.load());
  r.GetCounter("suvm.quarantine_hits")->Set(stats_.quarantine_hits.load());
  r.GetCounter("suvm.pages_restored")->Set(stats_.pages_restored.load());
  r.GetCounter("suvm.degraded_rejects")->Set(stats_.degraded_rejects.load());
  r.GetCounter("suvm.journal_appends")->Set(stats_.journal_appends.load());
  r.GetCounter("suvm.journal_commits")->Set(stats_.journal_commits.load());
  r.GetCounter("suvm.checkpoints")->Set(stats_.checkpoints.load());
  r.GetCounter("suvm.host_crashes")->Set(stats_.host_crashes.load());
  r.GetCounter("suvm.recovery.attempts")->Set(stats_.recovery_attempts.load());
  r.GetCounter("suvm.recovery.pages_verified")
      ->Set(stats_.recovery_pages_verified.load());
  r.GetCounter("suvm.recovery.pages_quarantined")
      ->Set(stats_.recovery_pages_quarantined.load());
  r.GetCounter("suvm.recovery.journal_replayed")
      ->Set(stats_.recovery_journal_replayed.load());
  r.GetCounter("suvm.recovery.journal_torn")
      ->Set(stats_.recovery_journal_torn.load());
  r.GetCounter("suvm.recovery.rollbacks_detected")
      ->Set(stats_.recovery_rollbacks.load());
  r.GetCounter("suvm.fault_coalesced")->Set(stats_.fault_coalesced.load());
  r.GetCounter("suvm.gate_wait_cycles")->Set(stats_.gate_wait_cycles.load());
  r.GetCounter("suvm.prefetch.issued")->Set(stats_.prefetch_issued.load());
  r.GetCounter("suvm.prefetch.hits")->Set(stats_.prefetch_hits.load());
  r.GetCounter("suvm.prefetch.wasted")->Set(stats_.prefetch_wasted.load());
  r.GetCounter("suvm.backing_bad_frees")->Set(store_->bad_frees());
  r.GetGauge("suvm.journal_bytes")
      ->Set(static_cast<int64_t>(store_->journal_bytes()));
  r.GetGauge("suvm.health_state")
      ->Set(static_cast<int64_t>(alloc_health_.state()));
  r.GetGauge("suvm.page_table_entries")
      ->Set(static_cast<int64_t>(PageTableEntries()));
  r.GetGauge("suvm.epc_pp_in_use")->Set(static_cast<int64_t>(cache_.in_use()));
  r.GetGauge("suvm.epc_pp_target")
      ->Set(static_cast<int64_t>(cache_.target_pages()));
  r.GetGauge("suvm.epcpp_free_slots")
      ->Set(static_cast<int64_t>(cache_.free_slots()));
}

void Suvm::NoteMacFailure(sim::CpuContext* cpu, uint64_t bs_page) {
  stats_.mac_failures.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmMacFailure,
                 cpu != nullptr ? cpu->clock.now() : 0, bs_page);
}

uint64_t Suvm::Malloc(size_t bytes) {
  StatusOr<uint64_t> addr = TryMalloc(bytes);
  return addr.ok() ? *addr : kInvalidAddr;
}

StatusOr<uint64_t> Suvm::TryMalloc(size_t bytes) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  // Degraded mode ("read-mostly"): after repeated allocation failures the
  // region stops interacting with the host for new allocations at all and
  // fails fast, except for the periodic probe that tests recovery. Existing
  // pages remain fully readable and writable throughout.
  if (alloc_health_.Admit() == HealthFsm::Gate::kDeny) {
    stats_.degraded_rejects.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "Suvm: allocation rejected (region degraded to read-mostly)");
  }
  if (faults_->ShouldInject(sim::Fault::kBackingAllocFail)) {
    stats_.alloc_failures.fetch_add(1, std::memory_order_relaxed);
    NoteAllocHealth(/*ok=*/false);
    return Status::ResourceExhausted(
        "Suvm: host refused the backing-store allocation");
  }
  const uint64_t addr = store_->Alloc(bytes);
  if (addr == kInvalidAddr) {
    stats_.alloc_failures.fetch_add(1, std::memory_order_relaxed);
    NoteAllocHealth(/*ok=*/false);
    return Status::ResourceExhausted("Suvm: backing-store arena exhausted");
  }
  NoteAllocHealth(/*ok=*/true);
  return addr;
}

void Suvm::NoteAllocHealth(bool ok) {
  const HealthState before = alloc_health_.state();
  if (ok) {
    alloc_health_.RecordSuccess();
  } else {
    alloc_health_.RecordFailure();
  }
  const HealthState after = alloc_health_.state();
  if (after != before) {
    trace_->Record(telemetry::TraceKind::kSuvmHealthChange, 0,
                   static_cast<uint64_t>(before),
                   static_cast<uint64_t>(after));
  }
}

void Suvm::Free(uint64_t addr) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return;  // dead instance: the arena belongs to the recovery path now
  }
  // Pages overlapped by this allocation may be resident or sealed. A page is
  // dropped (no write-back, metadata erased) only when it lies *entirely*
  // inside the freed block — pages can be shared with neighboring sub-page
  // allocations whose dirty data must survive. On a partially-owned edge
  // page only the freed byte-range is scrubbed to zero (so a future owner of
  // these backing-store bytes reads zeros, not a stale neighbor's secrets);
  // the page itself stays and is sealed back on its normal eviction path.
  const size_t block = store_->BlockSize(addr);
  if (block > 0) {
    const uint64_t end = addr + block;
    for (uint64_t page = addr / sim::kPageSize;
         page <= (end - 1) / sim::kPageSize; ++page) {
      Stripe& st = StripeFor(page);
      std::unique_lock<Spinlock> sl(st.lock);
      // Settle: wait out an in-flight fill/eviction so we see a stable page.
      auto it = st.map.find(page);
      while (it != st.map.end() &&
             (it->second.state == Residency::kFilling ||
              it->second.state == Residency::kEvicting)) {
        sl.unlock();
        CpuRelax();
        sl.lock();
        it = st.map.find(page);
      }
      if (it == st.map.end()) {
        continue;
      }
      PageMeta& m = it->second;
      const uint64_t page_start = page * sim::kPageSize;
      const bool fully_owned =
          page_start >= addr && page_start + sim::kPageSize <= end;
      if (fully_owned) {
        if (m.refcount != 0) {
          throw std::logic_error("Suvm::Free: page still pinned by a spointer");
        }
        if (m.slot >= 0) {
          slot_to_page_[static_cast<size_t>(m.slot)].store(
              kInvalidAddr, std::memory_order_relaxed);
          cache_.FreeSlot(m.slot);
        }
        st.map.erase(it);
        continue;
      }
      // Edge page shared with a live neighbor. Bring it resident if it only
      // exists as a seal, then scrub the freed range in the plaintext copy.
      if (m.slot < 0 && !m.has_data && m.subs == nullptr) {
        continue;  // never materialized: already reads as zeros
      }
      if (m.poisoned) {
        continue;  // quarantined: the seal is untrusted, nothing to scrub —
                   // the freed range stays behind the quarantine fast-fail
      }
      if (m.slot < 0) {
        // Claim the fill so concurrent faults coalesce behind the scrub, then
        // fetch a slot and decrypt with the stripe lock dropped.
        m.state = Residency::kFilling;
        sl.unlock();
        const int slot = AcquireSlot(nullptr);
        if (slot < 0) {
          sl.lock();
          m.state = Residency::kAbsent;
          continue;  // every slot pinned: leave the stale seal (no reader has
                     // a live allocation covering the freed range right now)
        }
        if (!LoadPage(nullptr, page, m, slot).ok()) {
          // Tampered seal: nothing trustworthy to preserve or scrub.
          cache_.FreeSlot(slot);
          sl.lock();
          m.state = Residency::kAbsent;
          continue;
        }
        sl.lock();
        m.slot = slot;
        m.ref_bit = true;
        m.dirty = false;
        m.state = Residency::kResident;
        slot_to_page_[static_cast<size_t>(slot)].store(
            page, std::memory_order_release);
      }
      const uint64_t lo = page_start > addr ? page_start : addr;
      const uint64_t hi =
          page_start + sim::kPageSize < end ? page_start + sim::kPageSize : end;
      uint8_t* data = SlotData(nullptr, m.slot, lo - page_start, hi - lo,
                               /*write=*/true);
      std::memset(data, 0, hi - lo);
      m.dirty = true;
    }
  }
  store_->Free(addr);
}

void Suvm::FillNonce(uint8_t nonce[crypto::kGcmNonceSize]) {
  std::lock_guard guard(nonce_lock_);
  nonce_rng_.FillBytes(nonce, crypto::kGcmNonceSize);
}

void Suvm::TouchIpt(sim::CpuContext* cpu, int slot, bool write) {
  // The inverse page table is tiny (16 B per EPC++ page) and hot; charge the
  // lookup as near-core work instead of a modeled memory round-trip.
  (void)slot;
  (void)write;
  enclave_->machine().ChargeCost(
      cpu, telemetry::CostCategory::kSuvmPaging,
      enclave_->machine().costs().suvm_pt_lookup_cycles);
}

void Suvm::TouchCryptoMeta(sim::CpuContext* cpu, uint64_t bs_page, bool write) {
  const size_t entry_bytes = config_.direct_mode ? 160 : 48;
  const uint64_t vaddr =
      meta_region_vaddr_ + (bs_page % meta_entries_) * entry_bytes;
  // Entries may straddle a page boundary; clamp to the page for Data().
  const size_t in_page = sim::kPageSize - (vaddr % sim::kPageSize);
  enclave_->Data(cpu, vaddr, in_page < entry_bytes ? in_page : entry_bytes, write);
}

int Suvm::PinPage(sim::CpuContext* cpu, uint64_t bs_page) {
  int slot = -1;
  const Status status = TryPinPage(cpu, bs_page, &slot);
  if (!status.ok()) {
    ThrowStatus(status);
  }
  return slot;
}

Status Suvm::TryPinPage(sim::CpuContext* cpu, uint64_t bs_page, int* slot_out) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  Stripe& st = StripeFor(bs_page);
  const uint64_t t0 = cpu != nullptr ? cpu->clock.now() : 0;

  // Residency loop. A resident page pins immediately (minor fault); a page in
  // flight on another thread (kFilling/kEvicting) is coalesced — this thread
  // waits for the state to settle instead of starting a duplicate load. An
  // absent page falls through with the stripe lock held: this thread is the
  // fill leader. find(), never operator[]: a pure miss must not
  // default-insert a PageMeta — the entry is created only once a slot is
  // actually being filled, otherwise miss-heavy probing grows the page table
  // without bound.
  bool coalesced = false;
  std::unique_lock<Spinlock> sl(st.lock);
  for (;;) {
    auto mit = st.map.find(bs_page);
    if (mit == st.map.end()) {
      break;  // leader: fresh page
    }
    PageMeta& m = mit->second;
    if (m.poisoned) {
      // Quarantined: fail fast, no crypto work, no paging.
      stats_.quarantine_hits.fetch_add(1, std::memory_order_relaxed);
      return Status::DataCorruption(kQuarantinedMsg);
    }
    if (m.state == Residency::kResident) {
      // A coalesced waiter pays for the wait in virtual time: its clock
      // fast-forwards to the leader's publication point (a thread that finds
      // the page already resident long after the fill owes nothing).
      if (cpu != nullptr && coalesced &&
          m.fill_done_vclock > cpu->clock.now()) {
        enclave_->machine().ChargeCost(cpu,
                                       telemetry::CostCategory::kSuvmPaging,
                                       m.fill_done_vclock - cpu->clock.now());
      }
      sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                          "suvm.minor_fault");
      ++m.refcount;
      m.ref_bit = true;
      if (m.prefetched) {
        m.prefetched = false;
        stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      }
      stats_.minor_faults.fetch_add(1, std::memory_order_relaxed);
      *slot_out = m.slot;
      // One inverse-page-table lookup (reference-count update).
      TouchIpt(cpu, m.slot, /*write=*/true);
      if (cpu != nullptr) {
        minor_fault_cycles_->Record(cpu->clock.now() - t0);
      }
      sl.unlock();
      NotePinForPrefetch(cpu, bs_page);
      return Status::Ok();
    }
    if (m.state == Residency::kAbsent) {
      break;  // leader: re-fill of a sealed (or rolled-back) page
    }
    // kFilling/kEvicting: another thread owns this page's transition.
    if (!coalesced) {
      coalesced = true;
      stats_.fault_coalesced.fetch_add(1, std::memory_order_relaxed);
    }
    sl.unlock();
    CpuRelax();
    sl.lock();
  }

  // Leader path: claim the entry so same-page faults coalesce behind us,
  // then fill it with no lock held — only the slot acquisition and the
  // page-table charge serialize on the paging gate.
  const auto [it, inserted] = st.map.try_emplace(bs_page);
  PageMeta& m = it->second;
  m.state = Residency::kFilling;
  sl.unlock();

  // Rolls the claim back on failure. The entry is erased only if we created
  // it and nothing durable (seal, quarantine verdict, sub-page metadata)
  // appeared meanwhile; a pre-existing entry just returns to kAbsent.
  const auto rollback = [&] {
    sl.lock();
    if (inserted && !m.has_data && !m.poisoned && m.subs == nullptr) {
      st.map.erase(it);
    } else {
      m.state = Residency::kAbsent;
    }
    sl.unlock();
  };

  {
    // Opened here, not earlier: a coalesced pin above is a minor fault and
    // must not be labelled major.
    sim::SpanScope major_span(&enclave_->machine().metrics().spans(), cpu,
                              "suvm.major_fault");
    const int slot = AcquireSlot(cpu);
    if (slot < 0) {
      rollback();
      return Status::ResourceExhausted(
          "Suvm: EPC++ exhausted — every cached page is pinned");
    }

    stats_.major_faults.fetch_add(1, std::memory_order_relaxed);
    // The serialized page-table manipulation slice of the fault. Decrypt
    // (LoadPage) stays outside the gate — that is the whole point.
    const uint64_t logic = enclave_->machine().costs().suvm_fault_logic_cycles;
    GateEnter(cpu, logic);
    enclave_->machine().ChargeCost(cpu, telemetry::CostCategory::kSuvmPaging,
                                   logic);
    GateExit(cpu);
    const Status status = LoadPage(cpu, bs_page, m, slot);
    if (!status.ok()) {
      // Integrity failure on page-in: return the slot so the cache stays
      // consistent (the page remains non-resident; retrying is safe).
      cache_.FreeSlot(slot);
      rollback();
      return status;
    }
    TouchIpt(cpu, slot, /*write=*/true);
    TouchCryptoMeta(cpu, bs_page, /*write=*/false);
    sl.lock();
    m.slot = slot;
    m.refcount = 1;
    m.ref_bit = true;
    m.dirty = false;
    m.fill_done_vclock = cpu != nullptr ? cpu->clock.now() : 0;
    m.state = Residency::kResident;
    slot_to_page_[static_cast<size_t>(slot)].store(bs_page,
                                                   std::memory_order_release);
    sl.unlock();
    *slot_out = slot;
    trace_->Record(telemetry::TraceKind::kSuvmMajorFault,
                   cpu != nullptr ? cpu->clock.now() : 0, bs_page,
                   static_cast<uint64_t>(slot));
    if (cpu != nullptr) {
      major_fault_cycles_->Record(cpu->clock.now() - t0);
    }
  }
  // Post-fault housekeeping, charged after the fault's latency was recorded:
  // refilling the reserve and speculating on the access stream are
  // throughput work, not part of this fault's critical path.
  ReplenishReserve(cpu);
  NotePinForPrefetch(cpu, bs_page);
  return Status::Ok();
}

Status Suvm::PinPageWithRetry(sim::CpuContext* cpu, uint64_t bs_page,
                              int* slot_out) {
  Status status = TryPinPage(cpu, bs_page, slot_out);
  if (status.ok() || status.code() != StatusCode::kDataCorruption) {
    return status;
  }
  if (IsQuarantined(bs_page)) {
    return status;  // quarantine fast-fail: the retry already happened once
  }
  // The MAC failure may stem from an in-flight tamper; one clean retry.
  stats_.retries.fetch_add(1, std::memory_order_relaxed);
  status = TryPinPage(cpu, bs_page, slot_out);
  if (status.code() == StatusCode::kDataCorruption) {
    // Persistent corruption: poison the page so every further access fails
    // fast instead of re-paying crypto + retry forever.
    QuarantinePage(cpu, bs_page);
  }
  return status;
}

bool Suvm::IsQuarantined(uint64_t bs_page) const {
  const Stripe& st = StripeFor(bs_page);
  std::lock_guard sl(st.lock);
  auto it = st.map.find(bs_page);
  return it != st.map.end() && it->second.poisoned;
}

void Suvm::MarkQuarantinedLocked(sim::CpuContext* cpu, uint64_t bs_page,
                                 PageMeta& m) {
  if (m.poisoned) {
    return;
  }
  m.poisoned = true;
  stats_.pages_quarantined.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmPageQuarantined,
                 cpu != nullptr ? cpu->clock.now() : 0, bs_page);
}

void Suvm::QuarantinePage(sim::CpuContext* cpu, uint64_t bs_page) {
  Stripe& st = StripeFor(bs_page);
  std::lock_guard sl(st.lock);
  // Corruption implies the page had sealed data, so the entry normally
  // exists; try_emplace covers the belt-and-braces case anyway.
  auto [it, inserted] = st.map.try_emplace(bs_page);
  MarkQuarantinedLocked(cpu, bs_page, it->second);
}

Status Suvm::TryRestorePage(sim::CpuContext* cpu, uint64_t bs_page) {
  {
    Stripe& st = StripeFor(bs_page);
    std::lock_guard sl(st.lock);
    auto it = st.map.find(bs_page);
    if (it == st.map.end() || !it->second.poisoned) {
      return Status::FailedPrecondition("Suvm: page is not quarantined");
    }
    it->second.poisoned = false;
  }
  // Prove the page is actually usable again: a full page-in (with the usual
  // single-retry tamper absorption). Persistent corruption re-quarantines
  // via the retry path above.
  int slot = -1;
  const Status status = PinPageWithRetry(cpu, bs_page, &slot);
  if (!status.ok()) {
    return status;
  }
  UnpinPage(bs_page, slot, /*dirty=*/false);
  stats_.pages_restored.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmPageRestored,
                 cpu != nullptr ? cpu->clock.now() : 0, bs_page);
  return Status::Ok();
}

void Suvm::UnpinPage(uint64_t bs_page, int slot, bool dirty) {
  Stripe& st = StripeFor(bs_page);
  std::lock_guard sl(st.lock);
  auto it = st.map.find(bs_page);
  if (it == st.map.end() || it->second.slot != slot) {
    throw std::logic_error("Suvm::UnpinPage: stale pin");
  }
  PageMeta& m = it->second;
  if (m.refcount == 0) {
    throw std::logic_error("Suvm::UnpinPage: refcount underflow");
  }
  --m.refcount;
  if (dirty) {
    m.dirty = true;
  }
}

uint8_t* Suvm::SlotData(sim::CpuContext* cpu, int slot, size_t offset, size_t len,
                        bool write) {
  return enclave_->Data(cpu, cache_.SlotVaddr(slot) + offset, len, write);
}

void Suvm::GateEnter(sim::CpuContext* cpu, uint64_t hold) {
  const uint64_t wait =
      paging_gate_.Acquire(cpu != nullptr ? cpu->clock.now() : 0, hold);
  if (cpu != nullptr && wait > 0) {
    stats_.gate_wait_cycles.fetch_add(wait, std::memory_order_relaxed);
    enclave_->machine().ChargeCost(cpu, telemetry::CostCategory::kSuvmPaging,
                                   wait);
  }
}

void Suvm::GateExit(sim::CpuContext* cpu) {
  paging_gate_.Release(cpu != nullptr ? cpu->clock.now() : 0);
}

bool Suvm::SelectVictim(sim::CpuContext* cpu, Victim* out) {
  GateEnter(cpu, /*hold=*/0);  // the scan charges nothing inside the gate
  const size_t n = cache_.max_pages();
  for (size_t scanned = 0; scanned < 2 * n; ++scanned) {
    size_t slot;
    if (config_.eviction == EvictionPolicy::kRandom) {
      std::lock_guard ng(nonce_lock_);
      slot = static_cast<size_t>(nonce_rng_.NextBelow(n));
    } else {
      if (clock_hand_ >= n) {
        clock_hand_ = 0;
      }
      slot = clock_hand_++;
    }
    const uint64_t bs_page = slot_to_page_[slot].load(std::memory_order_acquire);
    if (bs_page == kInvalidAddr) {
      continue;
    }
    Stripe& st = StripeFor(bs_page);
    std::lock_guard sl(st.lock);
    auto it = st.map.find(bs_page);
    // Re-validate under the stripe lock: the slot may have been recycled or
    // the page pinned/claimed since the unlocked slot_to_page_ read.
    if (it == st.map.end() || it->second.state != Residency::kResident ||
        it->second.slot != static_cast<int32_t>(slot) ||
        it->second.refcount != 0) {
      continue;
    }
    PageMeta& m = it->second;
    if (config_.eviction == EvictionPolicy::kClock && m.ref_bit) {
      m.ref_bit = false;  // second chance
      continue;
    }
    // Victim: detach it (faults can no longer pin it; the slot can no longer
    // be selected twice) and hand ownership to the caller for the seal.
    m.state = Residency::kEvicting;
    slot_to_page_[slot].store(kInvalidAddr, std::memory_order_relaxed);
    const bool have_seal =
        config_.direct_mode
            ? (m.subs != nullptr)  // conservatively: sub seals exist
            : m.has_data;
    out->bs_page = bs_page;
    out->meta = &m;
    out->slot = static_cast<int>(slot);
    out->write_back = m.dirty || !have_seal || !config_.clean_page_skip;
    out->scanned = scanned + 1;
    GateExit(cpu);
    return true;
  }
  GateExit(cpu);
  return false;
}

bool Suvm::EvictOne(sim::CpuContext* cpu, std::vector<int>* deferred_free) {
  Victim v;
  if (!SelectVictim(cpu, &v)) {
    return false;
  }
  PageMeta& m = *v.meta;
  // Seal with no lock held: kEvicting grants exclusive ownership of the
  // entry's payload, and the detached slot cannot be reallocated yet.
  sim::SpanScope evict_span(&enclave_->machine().metrics().spans(), cpu,
                            "suvm.evict");
  if (v.write_back) {
    SealResident(cpu, v.bs_page, m);
    stats_.writebacks.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.clean_drops.fetch_add(1, std::memory_order_relaxed);
  }
  evict_scan_len_->Record(v.scanned);
  trace_->Record(v.write_back ? telemetry::TraceKind::kSuvmEvictWriteback
                              : telemetry::TraceKind::kSuvmEvictCleanDrop,
                 cpu != nullptr ? cpu->clock.now() : 0, v.bs_page,
                 static_cast<uint64_t>(v.slot));
  TouchCryptoMeta(cpu, v.bs_page, /*write=*/true);
  {
    Stripe& st = StripeFor(v.bs_page);
    std::lock_guard sl(st.lock);
    m.slot = -1;
    m.dirty = false;
    if (m.prefetched) {
      m.prefetched = false;
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    m.state = Residency::kAbsent;
  }
  if (deferred_free != nullptr) {
    deferred_free->push_back(v.slot);
  } else {
    cache_.FreeSlot(v.slot);
  }
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

int Suvm::AcquireSlot(sim::CpuContext* cpu) {
  int slot = cache_.AllocSlot();
  while (slot < 0) {
    if (!EvictOne(cpu)) {
      return -1;
    }
    // Another faulting thread may race us to the freed slot; evict again
    // until an allocation sticks or nothing evictable remains.
    slot = cache_.AllocSlot();
  }
  return slot;
}

void Suvm::ReplenishReserve(sim::CpuContext* cpu) {
  if (!config_.eager_reserve || config_.swapper_low_watermark == 0) {
    return;
  }
  if (cache_.free_slots() >= config_.swapper_low_watermark) {
    return;
  }
  sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                      "suvm.reserve_fill");
  // Seals run per victim (outside all locks); the slot releases batch into
  // one free-list lock acquisition.
  std::vector<int> freed;
  while (cache_.free_slots() + freed.size() < config_.swapper_low_watermark) {
    if (!EvictOne(cpu, &freed)) {
      break;
    }
  }
  if (!freed.empty()) {
    cache_.FreeBatch(freed);
  }
}

void Suvm::NotePinForPrefetch(sim::CpuContext* cpu, uint64_t bs_page) {
  if (config_.prefetch_pages == 0 || cpu == nullptr ||
      cpu->id < 0 || cpu->id >= sim::kMaxCpus) {
    return;
  }
  StreamTracker& trk = streams_[cpu->id];
  if (trk.run > 0 && bs_page == trk.last_page + 1) {
    ++trk.run;
  } else {
    trk.run = 1;
  }
  trk.last_page = bs_page;
  if (trk.run >= config_.prefetch_min_run) {
    PrefetchRun(cpu, bs_page);
  }
}

void Suvm::PrefetchRun(sim::CpuContext* cpu, uint64_t bs_page) {
  // Candidates: the next N *sealed* pages (a batched decrypt needs
  // ciphertext; zero-fill faults are too cheap to speculate on, and skipping
  // never-written pages keeps the page table from growing on speculation).
  // Each candidate is claimed as kFilling so concurrent faults on it coalesce
  // behind this batch.
  struct Claim {
    uint64_t page;
    PageMeta* meta;
  };
  std::vector<Claim> claims;
  const uint64_t last_page = store_->capacity() / sim::kPageSize;
  for (uint64_t page = bs_page + 1;
       page <= bs_page + config_.prefetch_pages && page < last_page; ++page) {
    Stripe& st = StripeFor(page);
    std::lock_guard sl(st.lock);
    auto it = st.map.find(page);
    if (it == st.map.end() || it->second.state != Residency::kAbsent ||
        it->second.poisoned || !it->second.has_data) {
      continue;
    }
    it->second.state = Residency::kFilling;
    claims.push_back({page, &it->second});
  }
  if (claims.empty()) {
    return;
  }
  // Free slots only: prefetch must never evict real pages to make room.
  std::vector<int> slots = cache_.TryAllocBatch(claims.size());
  const auto release = [&](size_t from) {
    for (size_t i = from; i < claims.size(); ++i) {
      Stripe& st = StripeFor(claims[i].page);
      std::lock_guard sl(st.lock);
      claims[i].meta->state = Residency::kAbsent;
    }
  };
  if (slots.empty()) {
    release(0);
    return;
  }
  if (slots.size() < claims.size()) {
    release(slots.size());
    claims.resize(slots.size());
  }

  sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                      "suvm.prefetch");
  // One gate rendezvous + one page-table charge for the whole batch — the
  // amortization a real fault per page would not get.
  const uint64_t logic = enclave_->machine().costs().suvm_fault_logic_cycles;
  GateEnter(cpu, logic);
  enclave_->machine().ChargeCost(cpu, telemetry::CostCategory::kSuvmPaging,
                                 logic);
  GateExit(cpu);
  for (size_t i = 0; i < claims.size(); ++i) {
    PageMeta& m = *claims[i].meta;
    const uint64_t page = claims[i].page;
    const int slot = slots[i];
    if (!LoadPage(cpu, page, m, slot).ok()) {
      // Speculative load of a tampered seal: quietly abandon (mac_failures
      // already counted); the page stays absent and a real access will run
      // the retry/quarantine protocol.
      cache_.FreeSlot(slot);
      Stripe& st = StripeFor(page);
      std::lock_guard sl(st.lock);
      m.state = Residency::kAbsent;
      continue;
    }
    TouchIpt(cpu, slot, /*write=*/true);
    TouchCryptoMeta(cpu, page, /*write=*/false);
    Stripe& st = StripeFor(page);
    std::lock_guard sl(st.lock);
    m.slot = slot;
    m.refcount = 0;
    m.ref_bit = false;  // cheapest victims: speculation never displaces reuse
    m.dirty = false;
    m.prefetched = true;
    m.fill_done_vclock = cpu->clock.now();
    m.state = Residency::kResident;
    slot_to_page_[static_cast<size_t>(slot)].store(page,
                                                   std::memory_order_release);
    stats_.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  }
}

Status Suvm::LoadPage(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m,
                      int slot) {
  sim::Machine& machine = enclave_->machine();
  const uint64_t vaddr = cache_.SlotVaddr(slot);
  uint8_t* dst = machine.driver().Touch(cpu, *enclave_, vaddr / sim::kPageSize,
                                        /*write=*/true);
  machine.StreamAccess(cpu, vaddr, sim::kPageSize, /*write=*/true,
                       sim::MemKind::kEpc);

  const uint64_t arena_off = bs_page * sim::kPageSize;
  if (config_.direct_mode) {
    const size_t sub_size = config_.subpage_size;
    for (size_t s = 0; s < subpages_per_page_; ++s) {
      uint8_t* sub_dst = dst + s * sub_size;
      if (m.subs != nullptr && m.subs[s].has_data) {
        uint8_t* ct = store_->Raw(arena_off + s * sub_size);
        if (config_.fast_seal) {
          std::memcpy(sub_dst, ct, sub_size);
        } else {
          SubAad aad{bs_page, s};
          // The host may tamper with the ciphertext while it is in flight;
          // the flip is undone after Open so a retry can observe clean bytes.
          const bool flipped =
              faults_->ShouldInject(sim::Fault::kCiphertextFlip);
          if (flipped) {
            ct[0] ^= 0x01;
          }
          const bool ok = sealer_.Open(
              m.subs[s].nonce, reinterpret_cast<const uint8_t*>(&aad),
              sizeof(aad), ct, sub_size, m.subs[s].tag, sub_dst);
          if (flipped) {
            ct[0] ^= 0x01;
          }
          if (!ok) {
            NoteMacFailure(cpu, bs_page);
            return Status::DataCorruption(
                "Suvm: sub-page integrity check failed");
          }
        }
        enclave_->ChargeGcm(cpu, sub_size);
        machine.StreamAccess(cpu, BackingVaddr(arena_off + s * sub_size),
                             sub_size, /*write=*/false,
                             sim::MemKind::kUntrusted);
      } else {
        std::memset(sub_dst, 0, sub_size);
      }
    }
    return Status::Ok();
  }

  if (m.has_data) {
    return OpenPageCiphertext(cpu, bs_page, m, dst);
  }
  std::memset(dst, 0, sim::kPageSize);
  return Status::Ok();
}

Status Suvm::OpenPageCiphertext(sim::CpuContext* cpu, uint64_t bs_page,
                                PageMeta& m, uint8_t* dst) {
  sim::Machine& machine = enclave_->machine();
  uint8_t* ct = store_->Raw(bs_page * sim::kPageSize);
  if (config_.fast_seal) {
    std::memcpy(dst, ct, sim::kPageSize);
  } else {
    PageAad aad{bs_page};
    // Hostile-host window: the host may serve a stale seal (rollback/replay)
    // or flip ciphertext bits for this read. Both tampers are transient —
    // undone after Open — modeling in-flight modification; persistence is
    // modeled by arming the fault with more triggers.
    bool rolled_back = false;
    std::vector<uint8_t> fresh;
    if (faults_->armed(sim::Fault::kRollback)) {
      std::lock_guard sg(stale_lock_);
      auto it = stale_seals_.find(bs_page);
      if (it != stale_seals_.end() &&
          faults_->ShouldInject(sim::Fault::kRollback)) {
        fresh.assign(ct, ct + sim::kPageSize);
        std::memcpy(ct, it->second.data(), sim::kPageSize);
        rolled_back = true;
      }
    }
    bool flipped = false;
    if (!rolled_back && faults_->ShouldInject(sim::Fault::kCiphertextFlip)) {
      ct[0] ^= 0x01;
      flipped = true;
    }
    const bool ok = sealer_.Open(m.nonce, reinterpret_cast<const uint8_t*>(&aad),
                                 sizeof(aad), ct, sim::kPageSize, m.tag, dst);
    if (flipped) {
      ct[0] ^= 0x01;
    }
    if (rolled_back) {
      std::memcpy(ct, fresh.data(), sim::kPageSize);
    }
    if (!ok) {
      NoteMacFailure(cpu, bs_page);
      if (rolled_back) {
        // The enclave-held nonce/tag bind this address to the *newest* seal,
        // so a replayed older seal necessarily fails the MAC — that failure
        // IS the freshness guarantee. The injector's ground truth lets the
        // simulator classify it separately from plain corruption.
        stats_.rollbacks_detected.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::DataCorruption(
          "Suvm: page integrity check failed (tampered backing store?)");
    }
  }
  enclave_->ChargeGcm(cpu, sim::kPageSize);
  machine.StreamAccess(cpu, BackingVaddr(bs_page * sim::kPageSize),
                       sim::kPageSize, /*write=*/false,
                       sim::MemKind::kUntrusted);
  return Status::Ok();
}

void Suvm::SealResident(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m) {
  sim::Machine& machine = enclave_->machine();
  const uint64_t vaddr = cache_.SlotVaddr(m.slot);
  const uint8_t* src = machine.driver().Touch(cpu, *enclave_,
                                              vaddr / sim::kPageSize,
                                              /*write=*/false);
  machine.StreamAccess(cpu, vaddr, sim::kPageSize, /*write=*/false,
                       sim::MemKind::kEpc);

  const uint64_t arena_off = bs_page * sim::kPageSize;
  if (config_.direct_mode) {
    EnsureSubs(m);
    const size_t sub_size = config_.subpage_size;
    for (size_t s = 0; s < subpages_per_page_; ++s) {
      uint8_t* ct = store_->Raw(arena_off + s * sub_size);
      if (config_.fast_seal) {
        std::memcpy(ct, src + s * sub_size, sub_size);
      } else {
        FillNonce(m.subs[s].nonce);
        SubAad aad{bs_page, s};
        sealer_.Seal(m.subs[s].nonce, reinterpret_cast<const uint8_t*>(&aad),
                     sizeof(aad), src + s * sub_size, sub_size, ct,
                     m.subs[s].tag);
      }
      m.subs[s].has_data = true;
      enclave_->ChargeGcm(cpu, sub_size);
      machine.StreamAccess(cpu, BackingVaddr(arena_off + s * sub_size),
                           sub_size, /*write=*/true,
                           sim::MemKind::kUntrusted);
    }
    return;
  }

  uint8_t* ct = store_->Raw(arena_off);
  if (!config_.fast_seal && m.has_data &&
      faults_->armed(sim::Fault::kRollback)) {
    // A hostile host squirrels away the outgoing (still valid) seal so it can
    // replay it at the next page-in. Only bought while the fault is armed.
    std::lock_guard sg(stale_lock_);
    stale_seals_[bs_page].assign(ct, ct + sim::kPageSize);
  }
  if (config_.crash_consistency) {
    JournaledSeal(cpu, bs_page, m, src);
    return;
  }
  if (config_.fast_seal) {
    std::memcpy(ct, src, sim::kPageSize);
  } else {
    FillNonce(m.nonce);
    PageAad aad{bs_page};
    sealer_.Seal(m.nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
                 src, sim::kPageSize, ct, m.tag);
  }
  m.has_data = true;
  enclave_->ChargeGcm(cpu, sim::kPageSize);
  machine.StreamAccess(cpu, BackingVaddr(arena_off), sim::kPageSize,
                       /*write=*/true, sim::MemKind::kUntrusted);
}

void Suvm::EnsureSubs(PageMeta& m) {
  if (m.subs == nullptr) {
    m.subs = std::make_unique<SubMeta[]>(subpages_per_page_);
  }
}

bool Suvm::CrashPoint(sim::CpuContext* cpu, uint64_t window) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return true;
  }
  if (!faults_->ShouldInject(sim::Fault::kHostCrash)) {
    return false;
  }
  crashed_.store(true, std::memory_order_relaxed);
  stats_.host_crashes.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmHostCrash,
                 cpu != nullptr ? cpu->clock.now() : 0, window);
  return true;
}

void Suvm::JournaledSeal(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m,
                         const uint8_t* src) {
  sim::Machine& machine = enclave_->machine();
  const uint64_t arena_off = bs_page * sim::kPageSize;
  ++m.version;

  // Build the sealed payload in private memory first: nothing touches the
  // untrusted arena until the journal record exists (write-ahead rule).
  std::vector<uint8_t> sealed(sim::kPageSize);
  if (config_.fast_seal) {
    std::memcpy(sealed.data(), src, sim::kPageSize);
  } else {
    FillNonce(m.nonce);
    PageAad aad{bs_page};
    sealer_.Seal(m.nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
                 src, sim::kPageSize, sealed.data(), m.tag);
  }
  enclave_->ChargeGcm(cpu, sim::kPageSize);

  JournalRecord rec;
  rec.bs_page = bs_page;
  rec.version = m.version;
  std::memcpy(rec.nonce, m.nonce, sizeof(rec.nonce));
  std::memcpy(rec.tag, m.tag, sizeof(rec.tag));
  rec.payload = sealed;
  rec.crc = BackingStore::JournalCrc(rec);

  // Phase 1: append the journal record. A crash here may tear the record in
  // flight — partial bytes land, the stored CRC no longer matches a
  // recomputation, and replay discards it.
  if (CrashPoint(cpu, 1)) {
    if (faults_->ShouldInject(sim::Fault::kTornWrite)) {
      rec.payload.resize(sim::kPageSize / 2);
      store_->JournalAppend(std::move(rec));
    }
    return;
  }
  const uint64_t seq = store_->JournalAppend(std::move(rec));
  stats_.journal_appends.fetch_add(1, std::memory_order_relaxed);
  machine.StreamAccess(cpu, JournalVaddr(seq), sim::kPageSize, /*write=*/true,
                       sim::MemKind::kUntrusted);

  // Phase 2: the in-place arena write. A crash here may leave the page half
  // old / half new — recovery re-applies the journal record over it.
  uint8_t* ct = store_->Raw(arena_off);
  if (CrashPoint(cpu, 2)) {
    if (faults_->ShouldInject(sim::Fault::kTornWrite)) {
      std::memcpy(ct, sealed.data(), sim::kPageSize / 2);
    }
    return;
  }
  std::memcpy(ct, sealed.data(), sim::kPageSize);
  machine.StreamAccess(cpu, BackingVaddr(arena_off), sim::kPageSize,
                       /*write=*/true, sim::MemKind::kUntrusted);

  // Phase 3: the commit mark. A crash before it leaves a valid uncommitted
  // record; replay still applies it (version-gated), writing the same bytes
  // the in-place copy already holds.
  if (CrashPoint(cpu, 3)) {
    return;
  }
  store_->JournalCommit(seq);
  stats_.journal_commits.fetch_add(1, std::memory_order_relaxed);
  machine.StreamAccess(cpu, JournalVaddr(seq), 64, /*write=*/true,
                       sim::MemKind::kUntrusted);
  m.has_data = true;
}

// --- Unlinked bulk operations ---

void Suvm::Read(sim::CpuContext* cpu, uint64_t addr, void* dst, size_t len) {
  auto* out = static_cast<uint8_t*>(dst);
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    const size_t chunk = std::min(len, sim::kPageSize - off);
    const int slot = PinPage(cpu, page);
    const uint8_t* data = SlotData(cpu, slot, off, chunk, /*write=*/false);
    std::memcpy(out, data, chunk);
    UnpinPage(page, slot, /*dirty=*/false);
    out += chunk;
    addr += chunk;
    len -= chunk;
  }
}

void Suvm::Write(sim::CpuContext* cpu, uint64_t addr, const void* src, size_t len) {
  const auto* in = static_cast<const uint8_t*>(src);
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    const size_t chunk = std::min(len, sim::kPageSize - off);
    const int slot = PinPage(cpu, page);
    uint8_t* data = SlotData(cpu, slot, off, chunk, /*write=*/true);
    std::memcpy(data, in, chunk);
    UnpinPage(page, slot, /*dirty=*/true);
    in += chunk;
    addr += chunk;
    len -= chunk;
  }
}

Status Suvm::TryRead(sim::CpuContext* cpu, uint64_t addr, void* dst, size_t len) {
  auto* out = static_cast<uint8_t*>(dst);
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    const size_t chunk = std::min(len, sim::kPageSize - off);
    int slot = -1;
    const Status status = PinPageWithRetry(cpu, page, &slot);
    if (!status.ok()) {
      return status;
    }
    const uint8_t* data = SlotData(cpu, slot, off, chunk, /*write=*/false);
    std::memcpy(out, data, chunk);
    UnpinPage(page, slot, /*dirty=*/false);
    out += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Suvm::TryWrite(sim::CpuContext* cpu, uint64_t addr, const void* src,
                      size_t len) {
  const auto* in = static_cast<const uint8_t*>(src);
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    const size_t chunk = std::min(len, sim::kPageSize - off);
    int slot = -1;
    const Status status = PinPageWithRetry(cpu, page, &slot);
    if (!status.ok()) {
      return status;
    }
    uint8_t* data = SlotData(cpu, slot, off, chunk, /*write=*/true);
    std::memcpy(data, in, chunk);
    UnpinPage(page, slot, /*dirty=*/true);
    in += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

void Suvm::Memset(sim::CpuContext* cpu, uint64_t addr, uint8_t value, size_t len) {
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    const size_t chunk = std::min(len, sim::kPageSize - off);
    const int slot = PinPage(cpu, page);
    uint8_t* data = SlotData(cpu, slot, off, chunk, /*write=*/true);
    std::memset(data, value, chunk);
    UnpinPage(page, slot, /*dirty=*/true);
    addr += chunk;
    len -= chunk;
  }
}

void Suvm::Memcpy(sim::CpuContext* cpu, uint64_t dst, uint64_t src, size_t len) {
  uint8_t buf[512];
  if (dst > src && dst < src + len) {
    // Forward-overlapping ranges: front-to-back staging would re-read bytes a
    // previous chunk already overwrote. Copy back-to-front (memmove-style);
    // each chunk is staged through buf, so intra-chunk overlap is safe too.
    while (len > 0) {
      const size_t chunk = std::min(len, sizeof(buf));
      len -= chunk;
      Read(cpu, src + len, buf, chunk);
      Write(cpu, dst + len, buf, chunk);
    }
    return;
  }
  while (len > 0) {
    const size_t chunk = std::min(len, sizeof(buf));
    Read(cpu, src, buf, chunk);
    Write(cpu, dst, buf, chunk);
    src += chunk;
    dst += chunk;
    len -= chunk;
  }
}

int Suvm::Memcmp(sim::CpuContext* cpu, uint64_t addr, const void* other,
                 size_t len) {
  const auto* p = static_cast<const uint8_t*>(other);
  uint8_t buf[512];
  while (len > 0) {
    const size_t chunk = std::min(len, sizeof(buf));
    Read(cpu, addr, buf, chunk);
    const int c = std::memcmp(buf, p, chunk);
    if (c != 0) {
      return c;
    }
    addr += chunk;
    p += chunk;
    len -= chunk;
  }
  return 0;
}

// --- Direct access (§3.2.4) ---

void Suvm::ReadDirect(sim::CpuContext* cpu, uint64_t addr, void* dst, size_t len) {
  if (!config_.direct_mode) {
    throw std::logic_error("Suvm::ReadDirect requires direct_mode");
  }
  const Status status = TryReadDirect(cpu, addr, dst, len);
  if (!status.ok()) {
    ThrowStatus(status);
  }
}

void Suvm::WriteDirect(sim::CpuContext* cpu, uint64_t addr, const void* src,
                       size_t len) {
  if (!config_.direct_mode) {
    throw std::logic_error("Suvm::WriteDirect requires direct_mode");
  }
  const Status status = TryWriteDirect(cpu, addr, src, len);
  if (!status.ok()) {
    ThrowStatus(status);
  }
}

Status Suvm::TryReadDirect(sim::CpuContext* cpu, uint64_t addr, void* dst,
                           size_t len) {
  if (!config_.direct_mode) {
    return Status::FailedPrecondition("Suvm::ReadDirect requires direct_mode");
  }
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  auto* out = static_cast<uint8_t*>(dst);
  const size_t sub_size = config_.subpage_size;
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t page_off = addr % sim::kPageSize;
    const size_t sub = page_off / sub_size;
    const size_t sub_off = page_off % sub_size;
    const size_t chunk = std::min(len, sub_size - sub_off);

    Stripe& st = StripeFor(page);
    std::unique_lock<Spinlock> sl(st.lock);
    // Reads never materialize page-table entries: a miss on a never-written
    // page is answered with zeros straight away (default-inserting here let
    // read-only probes grow the page table without bound). An in-flight
    // fill/eviction is waited out first so the resident-copy-wins rule sees
    // a settled residency bit.
    auto it = st.map.find(page);
    while (it != st.map.end() &&
           (it->second.state == Residency::kFilling ||
            it->second.state == Residency::kEvicting)) {
      sl.unlock();
      CpuRelax();
      sl.lock();
      it = st.map.find(page);
    }
    stats_.direct_reads.fetch_add(1, std::memory_order_relaxed);
    direct_read_bytes_->Add(chunk);
    TouchCryptoMeta(cpu, page, /*write=*/false);
    if (it == st.map.end()) {
      std::memset(out, 0, chunk);  // never-written data reads as zero
    } else if (it->second.state == Residency::kResident) {
      // Consistency: the cached copy wins (paper: "reads are consistent by
      // checking that the page is not resident in the page cache first").
      PageMeta& m = it->second;
      m.ref_bit = true;
      const uint8_t* data = SlotData(cpu, m.slot, page_off, chunk, false);
      std::memcpy(out, data, chunk);
    } else {
      PageMeta& m = it->second;
      if (m.poisoned) {
        stats_.quarantine_hits.fetch_add(1, std::memory_order_relaxed);
        return Status::DataCorruption(kQuarantinedMsg);
      }
      Status status = DirectSubRead(cpu, m, page, sub, sub_off, out, chunk);
      if (status.code() == StatusCode::kDataCorruption) {
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
        status = DirectSubRead(cpu, m, page, sub, sub_off, out, chunk);
        if (status.code() == StatusCode::kDataCorruption) {
          MarkQuarantinedLocked(cpu, page, m);
        }
      }
      if (!status.ok()) {
        return status;
      }
    }
    out += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Suvm::TryWriteDirect(sim::CpuContext* cpu, uint64_t addr, const void* src,
                            size_t len) {
  if (!config_.direct_mode) {
    return Status::FailedPrecondition("Suvm::WriteDirect requires direct_mode");
  }
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  const auto* in = static_cast<const uint8_t*>(src);
  const size_t sub_size = config_.subpage_size;
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t page_off = addr % sim::kPageSize;
    const size_t sub = page_off / sub_size;
    const size_t sub_off = page_off % sub_size;
    const size_t chunk = std::min(len, sub_size - sub_off);

    Stripe& st = StripeFor(page);
    std::unique_lock<Spinlock> sl(st.lock);
    // Settle an in-flight fill/eviction before deciding between the resident
    // and sealed-sub-page paths.
    auto fit = st.map.find(page);
    while (fit != st.map.end() &&
           (fit->second.state == Residency::kFilling ||
            fit->second.state == Residency::kEvicting)) {
      sl.unlock();
      CpuRelax();
      sl.lock();
      fit = st.map.find(page);
    }
    // Writes legitimately materialize an entry (the page now has contents),
    // but a failed write must not leave a husk behind.
    const auto [it, inserted] = st.map.try_emplace(page);
    PageMeta& m = it->second;
    stats_.direct_writes.fetch_add(1, std::memory_order_relaxed);
    direct_write_bytes_->Add(chunk);
    TouchCryptoMeta(cpu, page, /*write=*/true);
    if (m.state == Residency::kResident) {
      m.ref_bit = true;
      m.dirty = true;
      uint8_t* data = SlotData(cpu, m.slot, page_off, chunk, true);
      std::memcpy(data, in, chunk);
    } else {
      if (m.poisoned) {
        stats_.quarantine_hits.fetch_add(1, std::memory_order_relaxed);
        return Status::DataCorruption(kQuarantinedMsg);
      }
      Status status = DirectSubWrite(cpu, m, page, sub, sub_off, in, chunk);
      if (status.code() == StatusCode::kDataCorruption) {
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
        status = DirectSubWrite(cpu, m, page, sub, sub_off, in, chunk);
        if (status.code() == StatusCode::kDataCorruption) {
          // Corruption implies the sub-page pre-existed, so `inserted` is
          // false and the poisoned entry survives the erase below.
          MarkQuarantinedLocked(cpu, page, m);
        }
      }
      if (!status.ok()) {
        if (inserted) {
          st.map.erase(it);
        }
        return status;
      }
    }
    in += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Suvm::DirectSubRead(sim::CpuContext* cpu, PageMeta& m, uint64_t bs_page,
                           size_t sub, size_t off, uint8_t* dst, size_t len) {
  const size_t sub_size = config_.subpage_size;
  if (m.subs == nullptr || !m.subs[sub].has_data) {
    std::memset(dst, 0, len);  // never-written data reads as zero
    return Status::Ok();
  }
  sim::Machine& machine = enclave_->machine();
  std::vector<uint8_t> plain(sub_size);
  uint8_t* ct = store_->Raw(bs_page * sim::kPageSize + sub * sub_size);
  if (config_.fast_seal) {
    std::memcpy(plain.data(), ct, sub_size);
  } else {
    SubAad aad{bs_page, sub};
    const bool flipped = faults_->ShouldInject(sim::Fault::kCiphertextFlip);
    if (flipped) {
      ct[0] ^= 0x01;
    }
    const bool ok = sealer_.Open(m.subs[sub].nonce,
                                 reinterpret_cast<const uint8_t*>(&aad),
                                 sizeof(aad), ct, sub_size, m.subs[sub].tag,
                                 plain.data());
    if (flipped) {
      ct[0] ^= 0x01;
    }
    if (!ok) {
      NoteMacFailure(cpu, bs_page);
      return Status::DataCorruption("Suvm: sub-page integrity check failed");
    }
  }
  enclave_->ChargeGcm(cpu, sub_size);
  machine.StreamAccess(cpu, BackingVaddr(bs_page * sim::kPageSize + sub * sub_size),
                       sub_size, /*write=*/false, sim::MemKind::kUntrusted);
  std::memcpy(dst, plain.data() + off, len);
  return Status::Ok();
}

Status Suvm::DirectSubWrite(sim::CpuContext* cpu, PageMeta& m, uint64_t bs_page,
                            size_t sub, size_t off, const uint8_t* src,
                            size_t len) {
  const size_t sub_size = config_.subpage_size;
  sim::Machine& machine = enclave_->machine();
  EnsureSubs(m);
  std::vector<uint8_t> plain(sub_size, 0);
  uint8_t* ct = store_->Raw(bs_page * sim::kPageSize + sub * sub_size);
  SubAad aad{bs_page, sub};
  if (m.subs[sub].has_data && len < sub_size) {
    // Read-modify-write of an existing sub-page.
    if (config_.fast_seal) {
      std::memcpy(plain.data(), ct, sub_size);
    } else {
      const bool flipped = faults_->ShouldInject(sim::Fault::kCiphertextFlip);
      if (flipped) {
        ct[0] ^= 0x01;
      }
      const bool ok = sealer_.Open(m.subs[sub].nonce,
                                   reinterpret_cast<const uint8_t*>(&aad),
                                   sizeof(aad), ct, sub_size, m.subs[sub].tag,
                                   plain.data());
      if (flipped) {
        ct[0] ^= 0x01;
      }
      if (!ok) {
        NoteMacFailure(cpu, bs_page);
        return Status::DataCorruption("Suvm: sub-page integrity check failed");
      }
    }
    enclave_->ChargeGcm(cpu, sub_size);
    machine.StreamAccess(cpu,
                         BackingVaddr(bs_page * sim::kPageSize + sub * sub_size),
                         sub_size, /*write=*/false, sim::MemKind::kUntrusted);
  }
  std::memcpy(plain.data() + off, src, len);
  if (config_.fast_seal) {
    std::memcpy(ct, plain.data(), sub_size);
  } else {
    FillNonce(m.subs[sub].nonce);
    sealer_.Seal(m.subs[sub].nonce, reinterpret_cast<const uint8_t*>(&aad),
                 sizeof(aad), plain.data(), sub_size, ct, m.subs[sub].tag);
  }
  m.subs[sub].has_data = true;
  enclave_->ChargeGcm(cpu, sub_size);
  machine.StreamAccess(cpu, BackingVaddr(bs_page * sim::kPageSize + sub * sub_size),
                       sub_size, /*write=*/true, sim::MemKind::kUntrusted);
  return Status::Ok();
}

// --- Maintenance ---

void Suvm::SwapperPass(sim::CpuContext* cpu) {
  if (cache_.free_slots() >= config_.swapper_low_watermark) {
    return;  // nothing to do: no span, so idle passes stay invisible
  }
  sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                      "suvm.swapper_pass");
  while (cache_.free_slots() < config_.swapper_low_watermark) {
    if (!EvictOne(cpu)) {
      return;
    }
  }
}

void Suvm::ResizeEpcPp(sim::CpuContext* cpu, size_t pages) {
  cache_.set_target_pages(pages);
  while (cache_.in_use() > cache_.target_pages()) {
    if (!EvictOne(cpu)) {
      return;  // everything remaining is pinned
    }
  }
}

size_t Suvm::BalloonPass(sim::CpuContext* cpu) {
  sim::SpanScope span(&enclave_->machine().metrics().spans(), cpu,
                      "suvm.balloon_pass");
  sim::SgxDriver& driver = enclave_->machine().driver();
  const size_t share = driver.AvailableFramesFor(enclave_->id());
  // Leave room for the enclave's non-EPC++ pages (metadata tables, app heap).
  // An enclave sized tighter than its cache (reserved < max_pages) must clamp
  // to zero here — the unsigned subtraction would otherwise wrap and compute
  // an astronomically large slack, ballooning the cache down to one page.
  const size_t reserved = enclave_->reserved_pages();
  const size_t other_pages =
      reserved > cache_.max_pages() ? reserved - cache_.max_pages() : 0;
  const size_t slack = other_pages + config_.swapper_low_watermark + 8;
  const size_t target = share > slack ? share - slack : 1;
  const size_t before = cache_.target_pages();
  ResizeEpcPp(cpu, target);
  if (cache_.target_pages() != before) {
    trace_->Record(telemetry::TraceKind::kSuvmBalloonResize,
                   cpu != nullptr ? cpu->clock.now() : 0, before,
                   cache_.target_pages());
  }
  // Opportunistic reserve top-up: the balloon pass already holds the "pay
  // background paging costs now" budget, so refill the free-slot reserve
  // here rather than on a later fault's critical path.
  ReplenishReserve(cpu);
  return cache_.target_pages();
}

// --- Crash consistency ---

StatusOr<sim::SgxDriver::SealedBlob> Suvm::SealCheckpoint(sim::CpuContext* cpu) {
  if (!config_.crash_consistency) {
    return Status::FailedPrecondition(
        "Suvm::SealCheckpoint requires config.crash_consistency");
  }
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  sim::Machine& machine = enclave_->machine();
  sim::SpanScope span(&machine.metrics().spans(), cpu, "suvm.seal_checkpoint");
  const uint64_t t0 = cpu != nullptr ? cpu->clock.now() : 0;

  // Flush every dirty (or never-sealed) resident page through the journaled
  // seal path. The crash injector may kill the host mid-flush; the checkpoint
  // then fails and the previous root remains the recovery point. Each page is
  // re-validated under its stripe lock (checkpoints expect a quiesced
  // instance, but a racing eviction between the atomic slot read and the lock
  // must not flush a detached entry). Sealing under the stripe lock keeps the
  // captured nonce/tag consistent with the root assembled below.
  for (size_t slot = 0; slot < slot_to_page_.size(); ++slot) {
    const uint64_t bs_page = slot_to_page_[slot].load(std::memory_order_acquire);
    if (bs_page == kInvalidAddr) {
      continue;
    }
    Stripe& st = StripeFor(bs_page);
    std::lock_guard sl(st.lock);
    auto it = st.map.find(bs_page);
    if (it == st.map.end() || it->second.state != Residency::kResident ||
        it->second.slot != static_cast<int32_t>(slot)) {
      continue;
    }
    PageMeta& m = it->second;
    if (!m.dirty && m.has_data) {
      continue;
    }
    SealResident(cpu, bs_page, m);
    if (crashed_.load(std::memory_order_relaxed)) {
      return Status::Unavailable(kCrashedMsg);
    }
    m.dirty = false;
  }

  // Capture the metadata root: every page with sealed data or a quarantine
  // verdict, sorted for deterministic serialization.
  std::vector<RootEntry> entries;
  for (Stripe& st : stripes_) {
    std::lock_guard sl(st.lock);
    for (auto& [bs_page, m] : st.map) {
      if (!m.has_data && !m.poisoned) {
        continue;  // resident-only zero-fill pages have nothing durable
      }
      RootEntry e;
      e.bs_page = bs_page;
      e.version = m.version;
      e.flags = (m.has_data ? kRootHasData : 0u) |
                (m.poisoned ? kRootPoisoned : 0u);
      std::memcpy(e.nonce, m.nonce, sizeof(e.nonce));
      std::memcpy(e.tag, m.tag, sizeof(e.tag));
      entries.push_back(e);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const RootEntry& a, const RootEntry& b) {
              return a.bs_page < b.bs_page;
            });

  RootHeader hdr;
  hdr.magic = kRootMagic;
  hdr.format = kRootFormat;
  hdr.freshness = machine.driver().BumpMonotonicCounter();
  hdr.journal_seq = store_->journal_next_seq();
  hdr.entry_count = entries.size();

  std::vector<uint8_t> bytes(sizeof(RootHeader) +
                             entries.size() * sizeof(RootEntry));
  std::memcpy(bytes.data(), &hdr, sizeof(hdr));
  if (!entries.empty()) {
    std::memcpy(bytes.data() + sizeof(hdr), entries.data(),
                entries.size() * sizeof(RootEntry));
  }
  sim::SgxDriver::SealedBlob blob =
      machine.driver().SealBlob(cpu, *enclave_, bytes.data(), bytes.size());

  // Everything below the captured mark is redundant with the arena + root;
  // drop it so the journal stays bounded.
  store_->JournalTruncate(hdr.journal_seq);
  stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmCheckpoint,
                 cpu != nullptr ? cpu->clock.now() : 0, entries.size(),
                 hdr.journal_seq);
  if (cpu != nullptr) {
    checkpoint_cycles_->Record(cpu->clock.now() - t0);
  }
  return blob;
}

Status Suvm::TryRecover(sim::CpuContext* cpu,
                        const sim::SgxDriver::SealedBlob& root,
                        RecoveryReport* report) {
  if (!config_.crash_consistency) {
    return Status::FailedPrecondition(
        "Suvm::TryRecover requires config.crash_consistency");
  }
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  if (PageTableEntries() != 0) {
    return Status::FailedPrecondition(
        "Suvm::TryRecover requires a fresh instance (empty page table)");
  }
  stats_.recovery_attempts.fetch_add(1, std::memory_order_relaxed);
  sim::Machine& machine = enclave_->machine();
  sim::SpanScope span(&machine.metrics().spans(), cpu, "suvm.recover");
  const uint64_t t0 = cpu != nullptr ? cpu->clock.now() : 0;
  RecoveryReport local;
  if (report == nullptr) {
    report = &local;
  }
  *report = RecoveryReport{};

  // 1. Unseal + validate the metadata root. The blob is authenticated, so a
  // bad layout means the host handed over bytes that never came from
  // SealCheckpoint — corruption, not a format skew.
  std::vector<uint8_t> bytes;
  if (!machine.driver().UnsealBlob(cpu, *enclave_, root, &bytes)) {
    return Status::DataCorruption("Suvm: sealed root rejected (MAC failure)");
  }
  if (bytes.size() < sizeof(RootHeader)) {
    return Status::DataCorruption("Suvm: sealed root truncated");
  }
  RootHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  if (hdr.magic != kRootMagic || hdr.format != kRootFormat ||
      bytes.size() !=
          sizeof(RootHeader) + hdr.entry_count * sizeof(RootEntry)) {
    return Status::DataCorruption("Suvm: sealed root malformed");
  }

  // 2. Freshness: the platform monotonic counter outlives the enclave. A
  // root sealed before the latest checkpoint is genuine but stale — the
  // classic rollback attack — and is refused outright.
  const uint64_t counter = machine.driver().monotonic_counter();
  if (hdr.freshness < counter) {
    stats_.recovery_rollbacks.fetch_add(1, std::memory_order_relaxed);
    return Status::RollbackDetected(
        "Suvm: sealed root is stale (platform counter advanced past it)");
  }
  if (hdr.freshness > counter) {
    return Status::DataCorruption(
        "Suvm: sealed root claims a future platform counter");
  }

  struct Recovered {
    uint64_t version = 0;
    bool has_data = false;
    bool poisoned = false;
    uint8_t nonce[crypto::kGcmNonceSize] = {};
    uint8_t tag[crypto::kGcmTagSize] = {};
  };
  std::map<uint64_t, Recovered> pages;  // sorted: deterministic sweep order
  const auto* root_entries =
      reinterpret_cast<const RootEntry*>(bytes.data() + sizeof(RootHeader));
  for (uint64_t i = 0; i < hdr.entry_count; ++i) {
    const RootEntry& e = root_entries[i];
    Recovered r;
    r.version = e.version;
    r.has_data = (e.flags & kRootHasData) != 0;
    r.poisoned = (e.flags & kRootPoisoned) != 0;
    std::memcpy(r.nonce, e.nonce, sizeof(r.nonce));
    std::memcpy(r.tag, e.tag, sizeof(r.tag));
    pages[e.bs_page] = r;
  }

  // 3. Journal replay (idempotent). Records are version-gated: only a record
  // strictly newer than what the root (or an earlier record) establishes is
  // applied, so replaying the same journal twice converges to the same arena.
  // Whether the commit mark landed is irrelevant to correctness — a valid
  // uncommitted record carries exactly the bytes the in-place write would
  // have; only torn (CRC-mismatched) records are discarded.
  {
    sim::SpanScope replay(&machine.metrics().spans(), cpu,
                          "suvm.journal_replay");
    for (const JournalRecord& rec : store_->JournalSnapshot(hdr.journal_seq)) {
      machine.StreamAccess(cpu, JournalVaddr(rec.seq), sim::kPageSize,
                           /*write=*/false, sim::MemKind::kUntrusted);
      machine.ChargeCost(cpu, telemetry::CostCategory::kSuvmPaging,
                         machine.costs().suvm_fault_logic_cycles);
      if (rec.payload.size() != sim::kPageSize ||
          rec.crc != BackingStore::JournalCrc(rec)) {
        ++report->journal_torn;  // torn mid-append: discard
        continue;
      }
      const uint64_t arena_off = rec.bs_page * sim::kPageSize;
      if (arena_off + sim::kPageSize > store_->capacity()) {
        ++report->journal_torn;  // out-of-range page: equally untrustworthy
        continue;
      }
      Recovered& r = pages[rec.bs_page];
      if (r.has_data && rec.version <= r.version) {
        ++report->journal_stale;  // already reflected in the arena/root
        continue;
      }
      std::memcpy(store_->Raw(arena_off), rec.payload.data(), sim::kPageSize);
      machine.StreamAccess(cpu, BackingVaddr(arena_off), sim::kPageSize,
                           /*write=*/true, sim::MemKind::kUntrusted);
      r.version = rec.version;
      r.has_data = true;  // a root-carried poisoned flag is kept: quarantine
                          // verdicts fail closed across the restart
      std::memcpy(r.nonce, rec.nonce, sizeof(r.nonce));
      std::memcpy(r.tag, rec.tag, sizeof(r.tag));
      ++report->journal_replayed;
    }
    trace_->Record(telemetry::TraceKind::kSuvmJournalReplay,
                   cpu != nullptr ? cpu->clock.now() : 0,
                   report->journal_replayed, report->journal_torn);
  }

  // 4. Verification sweep: every recovered page re-authenticates against its
  // enclave-held nonce/tag before the region trusts it. Failures quarantine
  // the page instead of failing the recovery — partial data beats none.
  std::vector<uint8_t> scratch(sim::kPageSize);
  for (auto& [bs_page, r] : pages) {
    if (r.has_data && !r.poisoned) {
      if (bs_page * sim::kPageSize + sim::kPageSize > store_->capacity()) {
        r.poisoned = true;
      } else {
        enclave_->ChargeGcm(cpu, sim::kPageSize);
        machine.StreamAccess(cpu, BackingVaddr(bs_page * sim::kPageSize),
                             sim::kPageSize, /*write=*/false,
                             sim::MemKind::kUntrusted);
        bool ok = true;
        if (!config_.fast_seal) {
          PageAad aad{bs_page};
          ok = sealer_.Open(r.nonce, reinterpret_cast<const uint8_t*>(&aad),
                            sizeof(aad), store_->Raw(bs_page * sim::kPageSize),
                            sim::kPageSize, r.tag, scratch.data());
        }
        if (!ok) {
          NoteMacFailure(cpu, bs_page);
          r.poisoned = true;
        }
      }
      if (r.poisoned) {
        stats_.pages_quarantined.fetch_add(1, std::memory_order_relaxed);
        trace_->Record(telemetry::TraceKind::kSuvmPageQuarantined,
                       cpu != nullptr ? cpu->clock.now() : 0, bs_page);
      } else {
        ++report->pages_verified;
      }
    }
    if (r.poisoned) {
      ++report->pages_quarantined;
    }
    // Install the entry (verified, quarantined, or a root-carried verdict).
    Stripe& st = StripeFor(bs_page);
    std::lock_guard sl(st.lock);
    PageMeta& m = st.map[bs_page];  // fresh instance: always a new entry
    m.version = r.version;
    m.has_data = r.has_data;
    m.poisoned = r.poisoned;
    std::memcpy(m.nonce, r.nonce, sizeof(m.nonce));
    std::memcpy(m.tag, r.tag, sizeof(m.tag));
  }

  if (report->pages_quarantined > 0) {
    report->degraded = true;
    const HealthState before = alloc_health_.state();
    if (alloc_health_.ForceDegrade()) {
      trace_->Record(telemetry::TraceKind::kSuvmHealthChange, 0,
                     static_cast<uint64_t>(before),
                     static_cast<uint64_t>(alloc_health_.state()));
    }
  }
  stats_.recovery_pages_verified.fetch_add(report->pages_verified,
                                           std::memory_order_relaxed);
  stats_.recovery_pages_quarantined.fetch_add(report->pages_quarantined,
                                              std::memory_order_relaxed);
  stats_.recovery_journal_replayed.fetch_add(report->journal_replayed,
                                             std::memory_order_relaxed);
  stats_.recovery_journal_torn.fetch_add(report->journal_torn,
                                         std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmRecovery,
                 cpu != nullptr ? cpu->clock.now() : 0, report->pages_verified,
                 report->pages_quarantined);
  if (cpu != nullptr) {
    recover_cycles_->Record(cpu->clock.now() - t0);
  }
  return Status::Ok();
}

}  // namespace eleos::suvm
