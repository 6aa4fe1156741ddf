// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/suvm/suvm.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "src/common/untrusted.h"
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
constexpr char kPastEndMsg[] = "Suvm: address past the backing store";

// Allocation health (DESIGN.md §7): consecutive allocation failures that
// degrade the region to read-mostly, and Malloc attempts per probe of the
// host while it is degraded.
constexpr uint32_t kAllocFailureThreshold = 4;
constexpr uint64_t kAllocProbeInterval = 16;

// Time-series SLO: per-window p99 of suvm.major_fault_cycles above this trips
// the rule (kSloViolation trace + slo.violations counters). The rule is
// registered unconditionally but inert until the machine's timeline sampler
// is enabled; the threshold sits far above a healthy page-in so benign runs
// never violate. See DESIGN.md §13.
constexpr double kSloMajorFaultP99Cycles = 1.0e6;

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
      gcm_(crypto::DeriveAesKey("suvm-app-key", config.key_seed).data()),
      slot_to_page_(config.epc_pp_pages),
      nonce_rng_(config.key_seed ^ 0x9e3779b97f4a7c15ull),
      alloc_health_(HealthFsm::Options{kAllocFailureThreshold,
                                       kAllocProbeInterval}),
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
      trace_(&enclave.machine().metrics().trace()),
      cells_(&enclave.machine().metrics()) {
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
  // Only its reservation is modelled (BalloonPass counts it; see TouchIpt).
  enclave_->Alloc(config.epc_pp_pages * 16);
  // The crypto-metadata table: one entry per backing-store page. It "may
  // grow fairly large" and is natively evictable under PRM pressure.
  meta_entries_ = config.backing_bytes / sim::kPageSize;
  const size_t meta_entry_bytes = config.direct_mode ? 160 : 48;
  meta_region_vaddr_ = enclave_->Alloc(meta_entries_ * meta_entry_bytes);
  table_ = AllocZeroedArray<PageMeta>(meta_entries_);
  if (config.direct_mode) {
    subs_ = AllocZeroedArray<SubMeta>(meta_entries_ * subpages_per_page_);
  }
  cells_.AddCounter("suvm.major_faults", stats_.major_faults);
  cells_.AddCounter("suvm.minor_faults", stats_.minor_faults);
  cells_.AddCounter("suvm.evictions", stats_.evictions);
  cells_.AddCounter("suvm.writebacks", stats_.writebacks);
  cells_.AddCounter("suvm.clean_drops", stats_.clean_drops);
  cells_.AddCounter("suvm.direct_reads", stats_.direct_reads);
  cells_.AddCounter("suvm.direct_writes", stats_.direct_writes);
  cells_.AddCounter("suvm.mac_failures", stats_.mac_failures);
  cells_.AddCounter("suvm.rollbacks_detected", stats_.rollbacks_detected);
  cells_.AddCounter("suvm.retries", stats_.retries);
  cells_.AddCounter("suvm.alloc_failures", stats_.alloc_failures);
  cells_.AddCounter("suvm.pages_quarantined", stats_.pages_quarantined);
  cells_.AddCounter("suvm.quarantine_hits", stats_.quarantine_hits);
  cells_.AddCounter("suvm.pages_restored", stats_.pages_restored);
  cells_.AddCounter("suvm.degraded_rejects", stats_.degraded_rejects);
  cells_.AddCounter("suvm.journal_appends", stats_.journal_appends);
  cells_.AddCounter("suvm.journal_commits", stats_.journal_commits);
  cells_.AddCounter("suvm.checkpoints", stats_.checkpoints);
  cells_.AddCounter("suvm.host_crashes", stats_.host_crashes);
  cells_.AddCounter("suvm.recovery.attempts", stats_.recovery_attempts);
  cells_.AddCounter("suvm.recovery.pages_verified",
                    stats_.recovery_pages_verified);
  cells_.AddCounter("suvm.recovery.pages_quarantined",
                    stats_.recovery_pages_quarantined);
  cells_.AddCounter("suvm.recovery.journal_replayed",
                    stats_.recovery_journal_replayed);
  cells_.AddCounter("suvm.recovery.journal_torn", stats_.recovery_journal_torn);
  cells_.AddCounter("suvm.recovery.rollbacks_detected",
                    stats_.recovery_rollbacks);
  cells_.AddCounter("suvm.fault_coalesced", stats_.fault_coalesced);
  cells_.AddCounter("suvm.gate_wait_cycles", stats_.gate_wait_cycles);
  // The arena outlives this instance when a restarted Suvm adopts it; the
  // registry counts each of its cells once (telemetry::CellList).
  cells_.AddCounter("suvm.backing_bad_frees", store_->bad_frees_cell());
  cells_.AddGauge("suvm.journal_bytes", store_->journal_bytes_cell());
  cells_.AddGauge("suvm.health_state", alloc_health_.state_cell());
  cells_.AddGauge("suvm.page_table_entries", page_table_entries_);
  cells_.AddGauge("suvm.epc_pp_in_use", cache_.in_use_cell());
  cells_.AddGauge("suvm.epc_pp_target", cache_.target_pages_cell());
  // SLO watchdog rule + flight-recorder health source (both machine-owned
  // registries outlive this object; the destructor unregisters).
  {
    telemetry::SloRule rule;
    rule.name = "suvm.major_fault_p99";
    rule.kind = telemetry::SloRule::Kind::kHistogramP99;
    rule.metric = "suvm.major_fault_cycles";
    rule.threshold = kSloMajorFaultP99Cycles;
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
}

bool Suvm::EmplaceEntry(PageMeta& m) {
  if (m.live) {
    return false;
  }
  m.live = true;
  page_table_entries_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Suvm::EraseEntry(uint64_t bs_page) {
  table_[bs_page] = PageMeta{};
  if (subs_ != nullptr) {
    std::fill_n(Subs(bs_page), subpages_per_page_, SubMeta{});
  }
  page_table_entries_.fetch_sub(1, std::memory_order_relaxed);
}

void Suvm::NoteMacFailure(sim::CpuContext* cpu, uint64_t bs_page) {
  stats_.mac_failures.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmMacFailure,
                 cpu != nullptr ? cpu->clock.now() : 0, bs_page);
}

StatusOr<uint64_t> Suvm::Malloc(size_t bytes) {
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
      std::unique_lock<Spinlock> sl(StripeLock(page));
      PageMeta& m = Settle(sl, page);
      if (!m.live) {
        continue;
      }
      const uint64_t page_start = page * sim::kPageSize;
      const bool fully_owned =
          page_start >= addr && page_start + sim::kPageSize <= end;
      if (fully_owned) {
        if (m.refcount != 0) {
          throw std::logic_error("Suvm::Free: page still pinned by a spointer");
        }
        if (m.state == Residency::kResident) {
          slot_to_page_[static_cast<size_t>(m.slot)].store(
              kInvalidAddr, std::memory_order_relaxed);
          cache_.FreeSlot(m.slot);
        }
        EraseEntry(page);
        continue;
      }
      // Edge page shared with a live neighbor: scrub the freed range through
      // the ordinary fault path. A page that never materialized already
      // reads as zeros. A quarantined or tampered seal has nothing
      // trustworthy to scrub, and with every slot pinned no reader has a
      // live allocation covering the freed range: both keep the old bytes.
      if (m.poisoned || (m.state != Residency::kResident && !m.has_data)) {
        continue;
      }
      sl.unlock();
      const uint64_t lo = std::max(page_start, addr);
      const uint64_t hi = std::min(page_start + sim::kPageSize, end);
      (void)Memset(nullptr, lo, 0, hi - lo);
    }
  }
  store_->Free(addr);
}

Suvm::PageMeta& Suvm::Settle(std::unique_lock<Spinlock>& sl, uint64_t page) {
  PageMeta& m = table_[page];
  while (m.state == Residency::kFilling || m.state == Residency::kEvicting) {
    sl.unlock();
    CpuRelax();
    sl.lock();
  }
  return m;
}

void Suvm::FillNonce(uint8_t nonce[crypto::kGcmNonceSize]) {
  std::lock_guard guard(nonce_lock_);
  nonce_rng_.FillBytes(nonce, crypto::kGcmNonceSize);
}

void Suvm::SealPageBytes(uint64_t bs_page, PageMeta& m, const uint8_t* src,
                         uint8_t* dst) {
  const PageAad aad{bs_page};
  FillNonce(m.nonce);
  gcm_.Seal(m.nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad), src,
            sim::kPageSize, dst, m.tag);
}

void Suvm::TouchIpt(sim::CpuContext* cpu) {
  // The inverse page table is tiny (16 B per EPC++ page) and hot; charge the
  // lookup as near-core work instead of a modeled memory round-trip.
  enclave_->machine().ChargeCost(
      cpu, telemetry::CostCategory::kSuvmPaging,
      enclave_->machine().costs().suvm_pt_lookup_cycles);
}

void Suvm::TouchCryptoMeta(sim::CpuContext* cpu, uint64_t bs_page, bool write) {
  const size_t entry_bytes = config_.direct_mode ? 160 : 48;
  const uint64_t vaddr = meta_region_vaddr_ + bs_page * entry_bytes;
  // Entries may straddle a page boundary; clamp to the page for Data().
  const size_t in_page = sim::kPageSize - (vaddr % sim::kPageSize);
  enclave_->Data(cpu, vaddr, in_page < entry_bytes ? in_page : entry_bytes, write);
}

Status Suvm::PinOnce(sim::CpuContext* cpu, uint64_t bs_page, int* slot_out) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  const uint64_t t0 = cpu != nullptr ? cpu->clock.now() : 0;

  // Residency loop. A resident page pins immediately (minor fault); a page in
  // flight on another thread (kFilling/kEvicting) is coalesced — this thread
  // waits for the state to settle instead of starting a duplicate load. An
  // absent page falls through with the stripe lock held: this thread is the
  // fill leader. The entry goes live only once a slot is actually being
  // filled, and a failed fill erases it again, so miss-heavy probing cannot
  // grow the page table.
  bool coalesced = false;
  PageMeta& m = table_[bs_page];
  std::unique_lock<Spinlock> sl(StripeLock(bs_page));
  for (;;) {
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
      stats_.minor_faults.fetch_add(1, std::memory_order_relaxed);
      *slot_out = m.slot;
      // One inverse-page-table lookup (reference-count update).
      TouchIpt(cpu);
      if (cpu != nullptr) {
        minor_fault_cycles_->Record(cpu->clock.now() - t0);
      }
      sl.unlock();
      return Status::Ok();
    }
    if (m.state == Residency::kAbsent) {
      break;  // leader: a fresh page, or a re-fill of a sealed one
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
  const bool inserted = EmplaceEntry(m);
  m.state = Residency::kFilling;
  sl.unlock();

  // Rolls the claim back on failure. The entry is erased only if we created
  // it and nothing durable (a seal or a quarantine verdict) appeared
  // meanwhile; a pre-existing entry just returns to kAbsent.
  const auto rollback = [&] {
    sl.lock();
    if (inserted && !m.has_data && !m.poisoned) {
      EraseEntry(bs_page);
    } else {
      m.state = Residency::kAbsent;
    }
    sl.unlock();
  };

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
  TouchIpt(cpu);
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
  return Status::Ok();
}

Status Suvm::PinPage(sim::CpuContext* cpu, uint64_t bs_page, int* slot_out) {
  if (bs_page >= meta_entries_) {
    return Status::InvalidArgument(kPastEndMsg);
  }
  Status status = PinOnce(cpu, bs_page, slot_out);
  if (status.ok() || status.code() != StatusCode::kDataCorruption) {
    return status;
  }
  if (IsQuarantined(bs_page)) {
    return status;  // quarantine fast-fail: the retry already happened once
  }
  // The MAC failure may stem from an in-flight tamper; one clean retry.
  stats_.retries.fetch_add(1, std::memory_order_relaxed);
  status = PinOnce(cpu, bs_page, slot_out);
  if (status.code() == StatusCode::kDataCorruption) {
    // Persistent corruption: poison the page so every further access fails
    // fast instead of re-paying crypto + retry forever. Corruption implies
    // the page had sealed data, so its entry normally exists already.
    std::lock_guard sl(StripeLock(bs_page));
    MarkQuarantinedLocked(cpu, bs_page);
  }
  return status;
}

bool Suvm::IsQuarantined(uint64_t bs_page) const {
  std::lock_guard sl(StripeLock(bs_page));
  return bs_page < meta_entries_ && table_[bs_page].poisoned;
}

void Suvm::MarkQuarantinedLocked(sim::CpuContext* cpu, uint64_t bs_page) {
  PageMeta& m = table_[bs_page];
  if (m.poisoned) {
    return;
  }
  EmplaceEntry(m);
  m.poisoned = true;
  stats_.pages_quarantined.fetch_add(1, std::memory_order_relaxed);
  trace_->Record(telemetry::TraceKind::kSuvmPageQuarantined,
                 cpu != nullptr ? cpu->clock.now() : 0, bs_page);
}

Status Suvm::TryRestorePage(sim::CpuContext* cpu, uint64_t bs_page) {
  {
    std::lock_guard sl(StripeLock(bs_page));
    if (bs_page >= meta_entries_ || !table_[bs_page].poisoned) {
      return Status::FailedPrecondition("Suvm: page is not quarantined");
    }
    table_[bs_page].poisoned = false;
  }
  // Prove the page is actually usable again: a full page-in (with the usual
  // single-retry tamper absorption). Persistent corruption re-quarantines
  // via the retry path above.
  int slot = -1;
  const Status status = PinPage(cpu, bs_page, &slot);
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
  std::lock_guard sl(StripeLock(bs_page));
  if (bs_page >= meta_entries_ ||
      table_[bs_page].state != Residency::kResident ||
      table_[bs_page].slot != slot) {
    throw std::logic_error("Suvm::UnpinPage: stale pin");
  }
  PageMeta& m = table_[bs_page];
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
    if (clock_hand_ >= n) {
      clock_hand_ = 0;
    }
    const size_t slot = clock_hand_++;
    const uint64_t bs_page = slot_to_page_[slot].load(std::memory_order_acquire);
    if (bs_page == kInvalidAddr) {
      continue;
    }
    std::lock_guard sl(StripeLock(bs_page));
    PageMeta& m = table_[bs_page];
    // Re-validate under the stripe lock: the slot may have been recycled or
    // the page pinned/claimed since the unlocked slot_to_page_ read.
    if (m.state != Residency::kResident ||
        m.slot != static_cast<int32_t>(slot) || m.refcount != 0) {
      continue;
    }
    if (m.ref_bit) {
      m.ref_bit = false;  // second chance
      continue;
    }
    // Victim: detach it (faults can no longer pin it; the slot can no longer
    // be selected twice) and hand ownership to the caller for the seal.
    m.state = Residency::kEvicting;
    slot_to_page_[slot].store(kInvalidAddr, std::memory_order_relaxed);
    out->bs_page = bs_page;
    out->meta = &m;
    out->slot = static_cast<int>(slot);
    out->write_back = m.dirty || !m.has_data || !config_.clean_page_skip;
    out->scanned = scanned + 1;
    GateExit(cpu);
    return true;
  }
  GateExit(cpu);
  return false;
}

bool Suvm::EvictOne(sim::CpuContext* cpu) {
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
    std::lock_guard sl(StripeLock(v.bs_page));
    m.dirty = false;
    m.state = Residency::kAbsent;
  }
  cache_.FreeSlot(v.slot);
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

Status Suvm::LoadPage(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m,
                      int slot) {
  sim::Machine& machine = enclave_->machine();
  const uint64_t vaddr = cache_.SlotVaddr(slot);
  uint8_t* dst = machine.driver().Touch(cpu, *enclave_, vaddr / sim::kPageSize,
                                        /*write=*/true);
  machine.StreamAccess(cpu, vaddr, sim::kPageSize, /*write=*/true,
                       sim::MemKind::kEpc);

  if (config_.direct_mode) {
    const size_t sub_size = config_.subpage_size;
    for (size_t s = 0; s < subpages_per_page_; ++s) {
      const Status status = OpenSub(cpu, bs_page, s, dst + s * sub_size);
      if (!status.ok()) {
        return status;
      }
    }
    return Status::Ok();
  }

  if (!m.has_data) {
    std::memset(dst, 0, sim::kPageSize);
    return Status::Ok();
  }
  uint8_t* ct = store_->Raw(bs_page * sim::kPageSize);
  const PageAad aad{bs_page};
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
  const bool flipped =
      !rolled_back && faults_->ShouldInject(sim::Fault::kCiphertextFlip);
  if (flipped) {
    ct[0] ^= 0x01;
  }
  const bool ok = gcm_.Open(m.nonce, reinterpret_cast<const uint8_t*>(&aad),
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

  if (config_.direct_mode) {
    for (size_t s = 0; s < subpages_per_page_; ++s) {
      SealSub(cpu, m, bs_page, s, src + s * config_.subpage_size);
    }
    return;
  }

  const uint64_t arena_off = bs_page * sim::kPageSize;
  uint8_t* ct = store_->Raw(arena_off);
  if (m.has_data && faults_->armed(sim::Fault::kRollback)) {
    // A hostile host squirrels away the outgoing (still valid) seal so it can
    // replay it at the next page-in. Only bought while the fault is armed.
    std::lock_guard sg(stale_lock_);
    stale_seals_[bs_page].assign(ct, ct + sim::kPageSize);
  }
  if (config_.crash_consistency) {
    JournaledSeal(cpu, bs_page, m, src);
    return;
  }
  SealPageBytes(bs_page, m, src, ct);
  m.has_data = true;
  enclave_->ChargeGcm(cpu, sim::kPageSize);
  machine.StreamAccess(cpu, BackingVaddr(arena_off), sim::kPageSize,
                       /*write=*/true, sim::MemKind::kUntrusted);
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
  SealPageBytes(bs_page, m, src, sealed.data());
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

template <typename Fn>
Status Suvm::WalkPages(sim::CpuContext* cpu, uint64_t addr, size_t len,
                       bool write, Fn&& fn) {
  if (!RangeFits(addr, len, config_.backing_bytes)) {
    return Status::InvalidArgument(kPastEndMsg);
  }
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    const size_t chunk = std::min(len, sim::kPageSize - off);
    int slot = -1;
    const Status status = PinPage(cpu, page, &slot);
    if (!status.ok()) {
      return status;
    }
    fn(SlotData(cpu, slot, off, chunk, write), chunk);
    UnpinPage(page, slot, /*dirty=*/write);
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Suvm::Read(sim::CpuContext* cpu, uint64_t addr, void* dst, size_t len) {
  auto* out = static_cast<uint8_t*>(dst);
  return WalkPages(cpu, addr, len, /*write=*/false,
                   [&](const uint8_t* data, size_t chunk) {
                     std::memcpy(out, data, chunk);
                     out += chunk;
                   });
}

Status Suvm::Write(sim::CpuContext* cpu, uint64_t addr, const void* src,
                   size_t len) {
  const auto* in = static_cast<const uint8_t*>(src);
  return WalkPages(cpu, addr, len, /*write=*/true,
                   [&](uint8_t* data, size_t chunk) {
                     std::memcpy(data, in, chunk);
                     in += chunk;
                   });
}

Status Suvm::Memset(sim::CpuContext* cpu, uint64_t addr, uint8_t value,
                    size_t len) {
  return WalkPages(cpu, addr, len, /*write=*/true,
                   [&](uint8_t* data, size_t chunk) {
                     std::memset(data, value, chunk);
                   });
}

Status Suvm::Memcpy(sim::CpuContext* cpu, uint64_t dst, uint64_t src,
                    size_t len) {
  if (!RangeFits(dst, len, config_.backing_bytes) ||
      !RangeFits(src, len, config_.backing_bytes)) {
    return Status::InvalidArgument(kPastEndMsg);
  }
  uint8_t buf[512];
  // Forward-overlapping ranges: front-to-back staging would re-read bytes a
  // previous chunk already overwrote. Copy back-to-front (memmove-style);
  // each chunk is staged through buf, so intra-chunk overlap is safe too.
  const bool backward = dst > src && dst < src + len;
  while (len > 0) {
    const size_t chunk = std::min(len, sizeof(buf));
    len -= chunk;
    const uint64_t at = backward ? len : 0;
    Status status = Read(cpu, src + at, buf, chunk);
    if (status.ok()) {
      status = Write(cpu, dst + at, buf, chunk);
    }
    if (!status.ok()) {
      return status;
    }
    if (!backward) {
      src += chunk;
      dst += chunk;
    }
  }
  return Status::Ok();
}

StatusOr<int> Suvm::Memcmp(sim::CpuContext* cpu, uint64_t addr,
                           const void* other, size_t len) {
  if (!RangeFits(addr, len, config_.backing_bytes)) {
    return Status::InvalidArgument(kPastEndMsg);
  }
  const auto* p = static_cast<const uint8_t*>(other);
  uint8_t buf[512];
  while (len > 0) {
    const size_t chunk = std::min(len, sizeof(buf));
    const Status status = Read(cpu, addr, buf, chunk);
    if (!status.ok()) {
      return status;
    }
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

Status Suvm::ReadDirect(sim::CpuContext* cpu, uint64_t addr, void* dst,
                        size_t len) {
  return WalkDirect(cpu, addr, static_cast<uint8_t*>(dst), nullptr, len);
}

Status Suvm::WriteDirect(sim::CpuContext* cpu, uint64_t addr, const void* src,
                         size_t len) {
  return WalkDirect(cpu, addr, nullptr, static_cast<const uint8_t*>(src), len);
}

Status Suvm::WalkDirect(sim::CpuContext* cpu, uint64_t addr, uint8_t* out,
                        const uint8_t* in, size_t len) {
  const bool write = in != nullptr;
  if (!config_.direct_mode) {
    return Status::FailedPrecondition(
        write ? "Suvm::WriteDirect requires direct_mode"
              : "Suvm::ReadDirect requires direct_mode");
  }
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(kCrashedMsg);
  }
  if (!RangeFits(addr, len, config_.backing_bytes)) {
    return Status::InvalidArgument(kPastEndMsg);
  }
  const size_t sub_size = config_.subpage_size;
  while (len > 0) {
    const uint64_t page = addr / sim::kPageSize;
    const size_t page_off = addr % sim::kPageSize;
    const size_t sub = page_off / sub_size;
    const size_t sub_off = page_off % sub_size;
    const size_t chunk = std::min(len, sub_size - sub_off);

    std::unique_lock<Spinlock> sl(StripeLock(page));
    // Settle an in-flight fill/eviction first so the resident-copy-wins rule
    // sees a settled residency bit. Reads never make an entry live: a miss on
    // a never-written page is answered with zeros (materializing entries here
    // let read-only probes grow the page table without bound). Writes
    // legitimately do (the page now has contents), but a failed write must
    // not leave a husk behind.
    PageMeta& m = Settle(sl, page);
    const bool inserted = write && EmplaceEntry(m);
    if (write) {
      stats_.direct_writes.fetch_add(1, std::memory_order_relaxed);
      direct_write_bytes_->Add(chunk);
    } else {
      stats_.direct_reads.fetch_add(1, std::memory_order_relaxed);
      direct_read_bytes_->Add(chunk);
    }
    TouchCryptoMeta(cpu, page, write);
    if (m.state == Residency::kResident) {
      // Consistency: the cached copy wins (paper: "reads are consistent by
      // checking that the page is not resident in the page cache first").
      m.ref_bit = true;
      uint8_t* data = SlotData(cpu, m.slot, page_off, chunk, write);
      if (write) {
        m.dirty = true;
        std::memcpy(data, in, chunk);
      } else {
        std::memcpy(out, data, chunk);
      }
    } else {
      if (m.poisoned) {
        stats_.quarantine_hits.fetch_add(1, std::memory_order_relaxed);
        return Status::DataCorruption(kQuarantinedMsg);
      }
      // The single-retry protocol, as in PinPage: a MAC failure is retried
      // once and a second one quarantines the page (corruption implies the
      // sub-page pre-existed, so a poisoned entry is never `inserted`).
      const auto access = [&] {
        return write ? DirectSubWrite(cpu, m, page, sub, sub_off, in, chunk)
                     : DirectSubRead(cpu, page, sub, sub_off, out, chunk);
      };
      Status status = access();
      if (status.code() == StatusCode::kDataCorruption) {
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
        status = access();
        if (status.code() == StatusCode::kDataCorruption) {
          MarkQuarantinedLocked(cpu, page);
        }
      }
      if (!status.ok()) {
        if (inserted) {
          EraseEntry(page);
        }
        return status;
      }
    }
    if (write) {
      in += chunk;
    } else {
      out += chunk;
    }
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Suvm::OpenSub(sim::CpuContext* cpu, uint64_t bs_page, size_t sub,
                     uint8_t* plain) {
  const size_t sub_size = config_.subpage_size;
  const SubMeta& sm = Subs(bs_page)[sub];
  if (!sm.has_data) {
    std::memset(plain, 0, sub_size);  // never-written data reads as zero
    return Status::Ok();
  }
  const uint64_t arena_off = bs_page * sim::kPageSize + sub * sub_size;
  uint8_t* ct = store_->Raw(arena_off);
  const SubAad aad{bs_page, sub};
  // The host may tamper with the ciphertext while it is in flight; the flip
  // is undone after Open so a retry can observe clean bytes.
  const bool flipped = faults_->ShouldInject(sim::Fault::kCiphertextFlip);
  if (flipped) {
    ct[0] ^= 0x01;
  }
  const bool ok = gcm_.Open(sm.nonce, reinterpret_cast<const uint8_t*>(&aad),
                            sizeof(aad), ct, sub_size, sm.tag, plain);
  if (flipped) {
    ct[0] ^= 0x01;
  }
  if (!ok) {
    NoteMacFailure(cpu, bs_page);
    return Status::DataCorruption("Suvm: sub-page integrity check failed");
  }
  enclave_->ChargeGcm(cpu, sub_size);
  enclave_->machine().StreamAccess(cpu, BackingVaddr(arena_off), sub_size,
                                   /*write=*/false, sim::MemKind::kUntrusted);
  return Status::Ok();
}

void Suvm::SealSub(sim::CpuContext* cpu, PageMeta& m, uint64_t bs_page,
                   size_t sub, const uint8_t* plain) {
  const size_t sub_size = config_.subpage_size;
  const uint64_t arena_off = bs_page * sim::kPageSize + sub * sub_size;
  const SubAad aad{bs_page, sub};
  SubMeta& sm = Subs(bs_page)[sub];
  FillNonce(sm.nonce);
  gcm_.Seal(sm.nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
            plain, sub_size, store_->Raw(arena_off), sm.tag);
  sm.has_data = true;
  m.has_data = true;
  enclave_->ChargeGcm(cpu, sub_size);
  enclave_->machine().StreamAccess(cpu, BackingVaddr(arena_off), sub_size,
                                   /*write=*/true, sim::MemKind::kUntrusted);
}

Status Suvm::DirectSubRead(sim::CpuContext* cpu, uint64_t bs_page, size_t sub,
                           size_t off, uint8_t* dst, size_t len) {
  std::vector<uint8_t> plain(config_.subpage_size);
  const Status status = OpenSub(cpu, bs_page, sub, plain.data());
  if (status.ok()) {
    std::memcpy(dst, plain.data() + off, len);
  }
  return status;
}

Status Suvm::DirectSubWrite(sim::CpuContext* cpu, PageMeta& m, uint64_t bs_page,
                            size_t sub, size_t off, const uint8_t* src,
                            size_t len) {
  std::vector<uint8_t> plain(config_.subpage_size, 0);
  if (Subs(bs_page)[sub].has_data && len < config_.subpage_size) {
    // Read-modify-write of an existing sub-page.
    const Status status = OpenSub(cpu, bs_page, sub, plain.data());
    if (!status.ok()) {
      return status;
    }
  }
  std::memcpy(plain.data() + off, src, len);
  SealSub(cpu, m, bs_page, sub, plain.data());
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
    std::lock_guard sl(StripeLock(bs_page));
    PageMeta& m = table_[bs_page];
    if (m.state != Residency::kResident ||
        m.slot != static_cast<int32_t>(slot)) {
      continue;
    }
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
  // verdict, in page order.
  std::vector<RootEntry> entries;
  for (uint64_t bs_page = 0; bs_page < meta_entries_; ++bs_page) {
    std::lock_guard sl(StripeLock(bs_page));
    const PageMeta& m = table_[bs_page];
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

  // 3. Install the root's entries. A page past the table cannot come from
  // this store's checkpoints: the root is corrupt, and nothing is installed.
  const auto* root_entries =
      reinterpret_cast<const RootEntry*>(bytes.data() + sizeof(RootHeader));
  for (uint64_t i = 0; i < hdr.entry_count; ++i) {
    if (root_entries[i].bs_page >= meta_entries_) {
      return Status::DataCorruption(
          "Suvm: sealed root names a page past the backing store");
    }
  }
  for (uint64_t i = 0; i < hdr.entry_count; ++i) {
    const RootEntry& e = root_entries[i];
    std::lock_guard sl(StripeLock(e.bs_page));
    PageMeta& m = table_[e.bs_page];
    EmplaceEntry(m);
    m.version = e.version;
    m.has_data = (e.flags & kRootHasData) != 0;
    m.poisoned = (e.flags & kRootPoisoned) != 0;
    std::memcpy(m.nonce, e.nonce, sizeof(m.nonce));
    std::memcpy(m.tag, e.tag, sizeof(m.tag));
  }

  // 4. Journal replay (idempotent). Records are version-gated: only a record
  // strictly newer than what the root (or an earlier record) establishes is
  // applied, so replaying the same journal twice converges to the same arena.
  // Whether the commit mark landed is irrelevant to correctness — a valid
  // uncommitted record carries exactly the bytes the in-place write would
  // have; only torn (CRC-mismatched) records, and records naming a page past
  // the table, are discarded.
  {
    sim::SpanScope replay(&machine.metrics().spans(), cpu,
                          "suvm.journal_replay");
    for (const JournalRecord& rec : store_->JournalSnapshot(hdr.journal_seq)) {
      machine.StreamAccess(cpu, JournalVaddr(rec.seq), sim::kPageSize,
                           /*write=*/false, sim::MemKind::kUntrusted);
      machine.ChargeCost(cpu, telemetry::CostCategory::kSuvmPaging,
                         machine.costs().suvm_fault_logic_cycles);
      if (rec.payload.size() != sim::kPageSize ||
          rec.crc != BackingStore::JournalCrc(rec) ||
          rec.bs_page >= meta_entries_) {
        ++report->journal_torn;
        continue;
      }
      std::lock_guard sl(StripeLock(rec.bs_page));
      PageMeta& m = table_[rec.bs_page];
      if (m.has_data && rec.version <= m.version) {
        ++report->journal_stale;  // already reflected in the arena/root
        continue;
      }
      const uint64_t arena_off = rec.bs_page * sim::kPageSize;
      std::memcpy(store_->Raw(arena_off), rec.payload.data(), sim::kPageSize);
      machine.StreamAccess(cpu, BackingVaddr(arena_off), sim::kPageSize,
                           /*write=*/true, sim::MemKind::kUntrusted);
      EmplaceEntry(m);
      m.version = rec.version;
      m.has_data = true;  // a root-carried poisoned flag is kept: quarantine
                          // verdicts fail closed across the restart
      std::memcpy(m.nonce, rec.nonce, sizeof(m.nonce));
      std::memcpy(m.tag, rec.tag, sizeof(m.tag));
      ++report->journal_replayed;
    }
    trace_->Record(telemetry::TraceKind::kSuvmJournalReplay,
                   cpu != nullptr ? cpu->clock.now() : 0,
                   report->journal_replayed, report->journal_torn);
  }

  // 5. Verification sweep, in page order: every recovered page
  // re-authenticates against its enclave-held nonce/tag before the region
  // trusts it. Failures quarantine the page instead of failing the recovery
  // — partial data beats none.
  std::vector<uint8_t> scratch(sim::kPageSize);
  for (uint64_t bs_page = 0; bs_page < meta_entries_; ++bs_page) {
    std::lock_guard sl(StripeLock(bs_page));
    PageMeta& m = table_[bs_page];
    if (m.has_data && !m.poisoned) {
      enclave_->ChargeGcm(cpu, sim::kPageSize);
      machine.StreamAccess(cpu, BackingVaddr(bs_page * sim::kPageSize),
                           sim::kPageSize, /*write=*/false,
                           sim::MemKind::kUntrusted);
      const PageAad aad{bs_page};
      if (gcm_.Open(m.nonce, reinterpret_cast<const uint8_t*>(&aad),
                    sizeof(aad), store_->Raw(bs_page * sim::kPageSize),
                    sim::kPageSize, m.tag, scratch.data())) {
        ++report->pages_verified;
      } else {
        NoteMacFailure(cpu, bs_page);
        m.poisoned = true;
        stats_.pages_quarantined.fetch_add(1, std::memory_order_relaxed);
        trace_->Record(telemetry::TraceKind::kSuvmPageQuarantined,
                       cpu != nullptr ? cpu->clock.now() : 0, bs_page);
      }
    }
    if (m.poisoned) {
      ++report->pages_quarantined;
    }
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
