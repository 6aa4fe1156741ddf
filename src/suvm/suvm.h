// Copyright (c) Eleos reproduction authors. MIT license.
//
// Secure User-managed Virtual Memory (SUVM) — the paper's core contribution
// (§3.2, §4.1).
//
// SUVM is an additional level of virtual memory implemented *inside* the
// enclave: its own page table, its own page cache (EPC++) carved out of
// enclave memory, and an encrypted backing store in untrusted memory.
// Accesses to non-resident pages raise *software* page faults handled
// entirely in trusted code — no enclave exit, no kernel, no TLB shootdown
// IPIs. Because eviction policy is application-controlled, SUVM adds two
// optimizations hardware paging cannot do: clean pages skip write-back, and
// direct-access mode reads/writes the backing store at sub-page granularity
// with per-sub-page nonces and MACs.
//
// Security (§3.2.5): evicted data is AES-GCM sealed with a per-application
// key and a fresh nonce per eviction; nonce+MAC live in enclave memory; the
// backing-store address is bound via AAD. Privacy, integrity and freshness
// of evicted pages match SGX's own EWB.

#ifndef ELEOS_SRC_SUVM_SUVM_H_
#define ELEOS_SRC_SUVM_SUVM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/health.h"
#include "src/common/huge_buffer.h"
#include "src/common/rng.h"
#include "src/common/spinlock.h"
#include "src/common/status.h"
#include "src/crypto/gcm.h"
#include "src/sim/enclave.h"
#include "src/sim/fault_injector.h"
#include "src/suvm/backing_store.h"
#include "src/suvm/page_cache.h"
#include "src/telemetry/telemetry.h"

namespace eleos::suvm {

struct SuvmConfig {
  size_t epc_pp_pages = (60ull << 20) / sim::kPageSize;  // paper's default 60 MiB
  size_t backing_bytes = 256ull << 20;                   // power of two
  bool clean_page_skip = true;   // §3.2.4: don't write back unmodified pages
  bool direct_mode = false;      // §3.2.4: per-sub-page sealing + direct access
  size_t subpage_size = 1024;    // direct-mode sub-page granularity
  // Free-pool size SwapperPass restores by evicting; BalloonPass also leaves
  // this many pages of slack below the driver's fair share.
  size_t swapper_low_watermark = 16;
  // Per-application sealing key seed.
  uint64_t key_seed = 0xe1e05;
  // Crash consistency: sealed page writes go through a journaled two-phase
  // commit (journal record -> in-place write -> commit mark), and the region
  // supports SealCheckpoint/TryRecover. Whole-page mode only (the sub-page
  // direct path has no journal); off by default so benign-path cycle counts
  // are untouched.
  bool crash_consistency = false;
};

class Suvm {
 public:
  Suvm(sim::Enclave& enclave, SuvmConfig config = {});
  // Restart path: adopts an existing backing store (the untrusted arena +
  // journal that survived the previous instance's death). The store capacity
  // must match config.backing_bytes; pass nullptr for a fresh arena.
  Suvm(sim::Enclave& enclave, SuvmConfig config,
       std::shared_ptr<BackingStore> store);
  ~Suvm();

  Suvm(const Suvm&) = delete;
  Suvm& operator=(const Suvm&) = delete;

  // Every fallible operation has exactly one member, returning Status. An
  // access to a range or page past config.backing_bytes is kInvalidArgument
  // before anything changes. Each page-in runs the fault-handler protocol: a MAC
  // failure (the tamper may be transient — e.g. an in-flight bit-flip) is
  // retried once; a persistent corruption or rollback surfaces as
  // kDataCorruption with the mac_failures / rollbacks_detected / retries
  // counters incremented, and quarantines the page. A crashed instance fails with kUnavailable. Callers that cannot
  // return a Status adapt with ThrowIfError (src/common/status.h).

  // --- Allocation (suvm_malloc / suvm_free) ---
  // Returns a SUVM address (backing-store offset); kResourceExhausted when
  // the arena is out of space, the host refuses the allocation (fault
  // injection), or the region is degraded to read-mostly.
  [[nodiscard]] StatusOr<uint64_t> Malloc(size_t bytes);
  // Throws std::logic_error only on a contract violation: a fully freed page
  // still pinned by a spointer (suvm_free maps it to a status).
  void Free(uint64_t addr);

  // --- spointer support ---
  // Pins the page (increments its reference count), paging it in on a major
  // fault, and stores the EPC++ slot in *slot_out. Pinned pages cannot be
  // evicted. kDataCorruption after the retry (tampered or rolled-back
  // backing store), kResourceExhausted when every EPC++ page is pinned. The
  // page stays non-resident on failure.
  [[nodiscard]] Status PinPage(sim::CpuContext* cpu, uint64_t bs_page,
                               int* slot_out);
  // --- Page quarantine (self-healing) ---
  // A page whose single MAC-failure retry also failed is poisoned: every
  // later access fails with kDataCorruption immediately — no crypto work, no
  // re-retry — until explicitly restored. Restore clears the poison bit and
  // re-attempts the page-in: success unpins and returns Ok, persistent
  // corruption re-quarantines the page and returns kDataCorruption.
  // kFailedPrecondition if the page is not quarantined (no page past the
  // backing store ever is).
  [[nodiscard]] Status TryRestorePage(sim::CpuContext* cpu, uint64_t bs_page);
  bool IsQuarantined(uint64_t bs_page) const;
  // Releases a pin; `dirty` propagates the spointer's dirty bit to the page.
  void UnpinPage(uint64_t bs_page, int slot, bool dirty);
  // Charged access to a pinned slot's bytes. The pointer is valid until the
  // next paging operation (the page itself cannot move while pinned).
  uint8_t* SlotData(sim::CpuContext* cpu, int slot, size_t offset, size_t len,
                    bool write);

  // --- Unlinked bulk operations (suvm_memcpy and friends) ---
  // A multi-page transfer that fails mid-way has already transferred the
  // earlier pages.
  [[nodiscard]] Status Read(sim::CpuContext* cpu, uint64_t addr, void* dst,
                            size_t len);
  [[nodiscard]] Status Write(sim::CpuContext* cpu, uint64_t addr,
                             const void* src, size_t len);
  [[nodiscard]] Status Memset(sim::CpuContext* cpu, uint64_t addr,
                              uint8_t value, size_t len);
  // Copy between two SUVM buffers.
  [[nodiscard]] Status Memcpy(sim::CpuContext* cpu, uint64_t dst, uint64_t src,
                              size_t len);
  // memcmp between a SUVM buffer and a plain buffer.
  [[nodiscard]] StatusOr<int> Memcmp(sim::CpuContext* cpu, uint64_t addr,
                                     const void* other, size_t len);

  // --- Direct access to the backing store (§3.2.4) ---
  // Bypasses EPC++ (unless the page is resident — consistency requires the
  // cached copy to win), operating at sub-page granularity with sub-page
  // crypto. Akin to O_DIRECT. kFailedPrecondition without direct_mode.
  [[nodiscard]] Status ReadDirect(sim::CpuContext* cpu, uint64_t addr,
                                  void* dst, size_t len);
  [[nodiscard]] Status WriteDirect(sim::CpuContext* cpu, uint64_t addr,
                                   const void* src, size_t len);

  // --- Maintenance ---
  // The swapper: keeps the EPC++ free pool at the configured watermark
  // (invoked periodically by the untrusted runtime in the paper).
  void SwapperPass(sim::CpuContext* cpu);
  // Balloon resize: sets the EPC++ budget, evicting as needed (§3.3).
  void ResizeEpcPp(sim::CpuContext* cpu, size_t pages);
  // Queries the driver's fair share (the Eleos ioctl) and resizes to fit next
  // to the enclave's other memory. Returns the new EPC++ page target.
  size_t BalloonPass(sim::CpuContext* cpu);

  // --- Crash consistency (requires config.crash_consistency) ---
  // Flushes every dirty resident page through the journaled seal path, then
  // seals the metadata root (page table versions/nonces/tags, the quarantine
  // set, a fresh platform monotonic counter, the journal high-water mark)
  // through the driver's data-sealing service. Returns the sealed root the
  // host must persist; the journal is truncated below the captured mark.
  [[nodiscard]] StatusOr<sim::SgxDriver::SealedBlob> SealCheckpoint(
      sim::CpuContext* cpu);

  struct RecoveryReport {
    uint64_t pages_verified = 0;     // MAC re-verified against the root
    uint64_t pages_quarantined = 0;  // failed verification: poisoned
    uint64_t journal_replayed = 0;   // records applied to the arena
    uint64_t journal_torn = 0;       // records discarded on CRC mismatch
    uint64_t journal_stale = 0;      // records superseded by a newer version
    bool degraded = false;  // partial recovery: region is read-mostly
  };
  // Recovers a fresh (never-used) instance from a sealed root plus whatever
  // survived in the adopted arena: unseals the root, checks freshness against
  // the platform counter (stale root => kRollbackDetected), replays the
  // journal (idempotent; torn records discarded), then re-verifies every
  // page MAC. Unverifiable pages are quarantined and the region degrades to
  // read-mostly instead of failing the whole recovery.
  [[nodiscard]] Status TryRecover(sim::CpuContext* cpu,
                                  const sim::SgxDriver::SealedBlob& root,
                                  RecoveryReport* report);

  // True once an injected kHostCrash has fired: the enclave instance is dead
  // and every entry point fails with kUnavailable (the test harness builds a
  // fresh instance over the surviving arena and recovers into it).
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  struct Stats {
    std::atomic<uint64_t> major_faults{0};  // page-ins (incl. zero-fills)
    std::atomic<uint64_t> minor_faults{0};  // pin of an already-resident page
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> writebacks{0};    // sealed to the backing store
    std::atomic<uint64_t> clean_drops{0};   // write-back skipped (clean page)
    std::atomic<uint64_t> direct_reads{0};
    std::atomic<uint64_t> direct_writes{0};
    // Hostile-host fault accounting (per enclave).
    std::atomic<uint64_t> mac_failures{0};        // GCM Open rejected a page
    std::atomic<uint64_t> rollbacks_detected{0};  // stale-seal replay rejected
    std::atomic<uint64_t> retries{0};             // page-in retried after a MAC failure
    std::atomic<uint64_t> alloc_failures{0};      // backing-store Alloc refused
    // Self-healing (page quarantine + alloc health).
    std::atomic<uint64_t> pages_quarantined{0};   // poison events (retry failed too)
    std::atomic<uint64_t> quarantine_hits{0};     // accesses fast-failed on poison
    std::atomic<uint64_t> pages_restored{0};      // TryRestorePage successes
    std::atomic<uint64_t> degraded_rejects{0};    // Malloc denied (degraded)
    // Crash consistency.
    std::atomic<uint64_t> journal_appends{0};     // 2PC phase 1: records written
    std::atomic<uint64_t> journal_commits{0};     // 2PC phase 3: commit marks
    std::atomic<uint64_t> checkpoints{0};         // sealed roots produced
    std::atomic<uint64_t> host_crashes{0};        // injected kHostCrash fires
    std::atomic<uint64_t> recovery_attempts{0};
    std::atomic<uint64_t> recovery_pages_verified{0};
    std::atomic<uint64_t> recovery_pages_quarantined{0};
    std::atomic<uint64_t> recovery_journal_replayed{0};
    std::atomic<uint64_t> recovery_journal_torn{0};
    std::atomic<uint64_t> recovery_rollbacks{0};  // stale roots rejected
    // Parallel paging.
    std::atomic<uint64_t> fault_coalesced{0};   // waited out another thread's
                                                // in-flight fill of this page
    std::atomic<uint64_t> gate_wait_cycles{0};  // virtual cycles queued on the
                                                // paging gate (serial slice)
  };
  // The store of the suvm.* counters: the machine's registry reads these
  // atomics in place (summed over every Suvm on the machine).
  const Stats& stats() const { return stats_; }

  // Allocation health (self-healing): 4 consecutive allocation failures
  // degrade the region to "read-mostly" — existing pages stay fully readable
  // and writable, but new allocations fail fast with kResourceExhausted (no
  // host interaction) until a probe allocation, every 16th attempt, succeeds.
  HealthState alloc_health_state() const { return alloc_health_.state(); }

  // Live page-table footprint: the number of live PageMeta entries. Bounded
  // by the touched working set — read-only misses must NOT grow it
  // (regression guard for the default-insert bug).
  size_t PageTableEntries() const {
    return page_table_entries_.load(std::memory_order_relaxed);
  }

  sim::Enclave& enclave() { return *enclave_; }
  const SuvmConfig& config() const { return config_; }
  PageCache& page_cache() { return cache_; }
  BackingStore& backing_store() { return *store_; }
  // The untrusted arena + journal: host memory that outlives the enclave
  // instance. Hand it to the restart path's adopting constructor.
  std::shared_ptr<BackingStore> shared_backing_store() { return store_; }
  size_t subpages_per_page() const { return subpages_per_page_; }

 private:
  struct SubMeta {
    uint8_t nonce[crypto::kGcmNonceSize] = {};
    uint8_t tag[crypto::kGcmTagSize] = {};
    bool has_data = false;
  };

  // Residency state machine (DESIGN.md §14). kFilling/kEvicting grant the
  // transitioning thread *exclusive* ownership of the entry's payload fields
  // (slot/nonce/tag/has_data/sub-pages) without holding the stripe lock —
  // every other thread must wait for the state to settle (coalescing on a
  // fill, spinning out an eviction) before touching them. That exclusivity
  // is what lets the GCM decrypt/encrypt run outside all locks.
  enum class Residency : uint8_t {
    kAbsent = 0,    // not in EPC++ (may still have a valid seal: has_data)
    kFilling = 1,   // a leader is paging it in (slot not yet published)
    kResident = 2,  // in EPC++; slot is valid
    kEvicting = 3,  // an evictor is sealing it out (slot still owned by it)
  };

  // One entry per backing-store page; all-zero is an absent page. `slot` is
  // meaningful only while `state == kResident`.
  struct PageMeta {
    int32_t slot = 0;          // EPC++ slot
    uint32_t refcount = 0;     // pins by linked spointers
    Residency state = Residency::kAbsent;
    bool dirty = false;
    bool ref_bit = false;      // second chance for the EPC++ clock
    bool has_data = false;     // a valid seal (direct mode: of some sub-page)
    bool poisoned = false;     // quarantined: accesses fast-fail, no crypto
    bool live = false;         // counted in page_table_entries_
    uint64_t version = 0;      // monotonic seal version (crash consistency)
    // Leader's virtual clock at fill publication: a coalesced waiter
    // fast-forwards its own clock to this point (it "waited" for the fill).
    uint64_t fill_done_vclock = 0;
    uint8_t nonce[crypto::kGcmNonceSize] = {};
    uint8_t tag[crypto::kGcmTagSize] = {};
  };

  // Each page's entry is guarded by the spinlock of its stripe.
  static constexpr size_t kStripes = 64;
  Spinlock& StripeLock(uint64_t bs_page) const {
    return stripe_locks_[bs_page % kStripes];
  }
  // Direct mode: the page's subpages_per_page_ sub-page entries.
  SubMeta* Subs(uint64_t bs_page) {
    return subs_.get() + bs_page * subpages_per_page_;
  }
  // Stripe lock held: makes the entry live, true if it was absent. Erase
  // zeroes the entry (and its sub-pages) again. Both keep
  // page_table_entries_ in step.
  bool EmplaceEntry(PageMeta& m);
  void EraseEntry(uint64_t bs_page);

  // Paging internals (DESIGN.md §14). Victim selection serializes on the
  // paging gate; the seal runs afterwards with only kEvicting ownership.
  struct Victim {
    uint64_t bs_page = 0;
    PageMeta* meta = nullptr;  // stable: table entries never move
    int slot = -1;
    bool write_back = false;
    size_t scanned = 0;  // candidates examined (evict_scan_len histogram)
  };
  // Picks one victim with the clock (second-chance) scan under the paging
  // gate and detaches it (kEvicting, slot_to_page_ cleared). False when every
  // resident page is pinned.
  bool SelectVictim(sim::CpuContext* cpu, Victim* out);
  // SelectVictim + seal + teardown; the slot returns to the cache.
  bool EvictOne(sim::CpuContext* cpu);
  // AllocSlot, evicting as needed; -1 when every cached page is pinned.
  int AcquireSlot(sim::CpuContext* cpu);
  // Paging-gate entry/exit: Enter charges the queueing delay before the
  // first gap that fits a `hold`-cycle section (kSuvmPaging +
  // stats.gate_wait_cycles); Exit records the holder's section.
  void GateEnter(sim::CpuContext* cpu, uint64_t hold);
  void GateExit(sim::CpuContext* cpu);
  // One pin attempt (no retry): the residency loop, then the fill as leader.
  Status PinOnce(sim::CpuContext* cpu, uint64_t bs_page, int* slot_out);
  // The page walker behind Read/Write/Memset: pins each page of the range
  // through PinPage and hands fn(slot_bytes, chunk) the pinned bytes.
  template <typename Fn>
  Status WalkPages(sim::CpuContext* cpu, uint64_t addr, size_t len, bool write,
                   Fn&& fn);
  // The sub-page walker behind ReadDirect (out) / WriteDirect (in).
  Status WalkDirect(sim::CpuContext* cpu, uint64_t addr, uint8_t* out,
                    const uint8_t* in, size_t len);
  // With the page's stripe lock held, waits out an in-flight fill/eviction
  // of `page` and returns its settled entry.
  PageMeta& Settle(std::unique_lock<Spinlock>& sl, uint64_t page);
  // Fills `slot` with the page's plaintext: opens its seal inside the host's
  // tamper windows (an injected bit-flip or stale-seal rollback, undone after
  // Open; rollbacks are classified), or zero-fills a never-sealed page.
  Status LoadPage(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m, int slot);
  void SealResident(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m);
  // The journaled two-phase commit (crash_consistency): journal record with
  // fresh nonce/tag/version -> in-place arena write -> commit mark, with
  // kHostCrash/kTornWrite windows between the phases.
  void JournaledSeal(sim::CpuContext* cpu, uint64_t bs_page, PageMeta& m,
                     const uint8_t* src);
  // Rolls the kHostCrash dice at 2PC window `window` (also true if already
  // crashed). A fresh fire marks the instance dead and traces the window.
  bool CrashPoint(sim::CpuContext* cpu, uint64_t window);
  void FillNonce(uint8_t nonce[crypto::kGcmNonceSize]);
  // Whole-page AES-GCM seal of `src` into `dst` under a fresh nonce.
  void SealPageBytes(uint64_t bs_page, PageMeta& m, const uint8_t* src,
                     uint8_t* dst);

  // Bumps mac_failures and drops a trace event (every Open site).
  void NoteMacFailure(sim::CpuContext* cpu, uint64_t bs_page);

  // Poisons the page (its entry goes live); expects its stripe lock held.
  void MarkQuarantinedLocked(sim::CpuContext* cpu, uint64_t bs_page);
  // Feeds one Malloc outcome into the alloc health FSM; traces
  // kSuvmHealthChange on a state transition.
  void NoteAllocHealth(bool ok);

  // Accounting touches on SUVM's own (EPC-resident, natively evictable)
  // metadata tables.
  void TouchIpt(sim::CpuContext* cpu);
  void TouchCryptoMeta(sim::CpuContext* cpu, uint64_t bs_page, bool write);

  // Open (with the host's in-flight flip window; zeros if never written) and
  // seal of one whole sub-page, plus the read-modify-write helpers the
  // direct path builds on them.
  Status OpenSub(sim::CpuContext* cpu, uint64_t bs_page, size_t sub,
                 uint8_t* plain);
  void SealSub(sim::CpuContext* cpu, PageMeta& m, uint64_t bs_page, size_t sub,
               const uint8_t* plain);
  Status DirectSubRead(sim::CpuContext* cpu, uint64_t bs_page, size_t sub,
                       size_t off, uint8_t* dst, size_t len);
  Status DirectSubWrite(sim::CpuContext* cpu, PageMeta& m, uint64_t bs_page,
                        size_t sub, size_t off, const uint8_t* src, size_t len);

  sim::Enclave* enclave_;
  SuvmConfig config_;
  size_t subpages_per_page_;
  sim::FaultInjector* faults_;  // the machine's hostile-host switchboard
  // Untrusted memory: shared so the arena + journal can outlive this enclave
  // instance and be adopted by its post-crash successor.
  std::shared_ptr<BackingStore> store_;
  PageCache cache_;
  // Every whole-page, sub-page, journaled and recovery seal is AES-GCM under
  // this key, with nonces from FillNonce.
  crypto::AesGcm gcm_;
  std::atomic<bool> crashed_{false};

  // Rollback-replay support: previously valid seals, stashed at reseal time
  // only while Fault::kRollback is armed (the "hostile host keeps old
  // ciphertext around" half of a replay attack).
  Spinlock stale_lock_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> stale_seals_;

  // The page table, indexed by backing-store page (meta_entries_ of them),
  // and in direct mode the sub-page table beside it. Both are ZeroedArrays:
  // a page never touched costs no host memory.
  ZeroedArray<PageMeta> table_;
  ZeroedArray<SubMeta> subs_;
  mutable Spinlock stripe_locks_[kStripes];
  // The serialized slice of paging: victim selection (clock_hand_) plus the
  // per-fault page-table manipulation charge. Lock order: paging_gate_ ->
  // stripe lock -> leaf locks (cache_, driver, nonce/stale). Nothing acquires
  // the gate while holding a stripe lock.
  VirtualGate paging_gate_;
  // slot -> bs_page (kInvalidAddr if free/detached). Atomic entries: fault
  // leaders publish while holding only their stripe lock, victim selection
  // scans under the gate; both re-validate against the stripe-locked
  // PageMeta before trusting a reading.
  std::vector<std::atomic<uint64_t>> slot_to_page_;
  size_t clock_hand_ = 0;  // guarded by paging_gate_

  // The crypto-metadata region (enclave memory; evictable by native SGX
  // paging, which is exactly the paper's >1 GiB working-set effect): one
  // entry per backing-store page, as in table_.
  uint64_t meta_region_vaddr_;
  size_t meta_entries_;

  Spinlock nonce_lock_;
  Xoshiro256 nonce_rng_;
  Stats stats_;
  // Live table entries (suvm.page_table_entries); written under the stripe
  // lock of the changed entry, read lock-free.
  std::atomic<uint64_t> page_table_entries_{0};
  HealthFsm alloc_health_;
  size_t slo_fault_rule_ = 0;
  size_t flight_health_source_ = 0;

  // Telemetry (resolved from the machine's registry at construction; the
  // registry outlives this object). Histograms are hot-path-cheap (relaxed
  // atomics); the trace ring records only rare paging events.
  telemetry::Histogram* major_fault_cycles_;
  telemetry::Histogram* minor_fault_cycles_;
  telemetry::Histogram* evict_scan_len_;
  telemetry::Histogram* checkpoint_cycles_;
  telemetry::Histogram* recover_cycles_;
  telemetry::Counter* direct_read_bytes_;
  telemetry::Counter* direct_write_bytes_;
  telemetry::TraceRing* trace_;
  // Lists stats_ and the paging levels with the registry; declared last so
  // it unlists before any of them dies.
  telemetry::CellList cells_;
};

}  // namespace eleos::suvm

#endif  // ELEOS_SRC_SUVM_SUVM_H_
