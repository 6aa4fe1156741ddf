// Copyright (c) Eleos reproduction authors. MIT license.
//
// Simulated SGX kernel driver: demand paging of EPC pages.
//
// Reproduces the behaviour of Intel's Linux `isgx` driver that the paper
// measures against (§2.3) and extends (§3.3):
//  * Pages are materialized lazily (zero-filled on first touch).
//  * Under PRM pressure a background swapper evicts batches of pages to keep
//    a small free pool; evictions seal page contents with AES-GCM into
//    untrusted memory, exactly like the EWB instruction (privacy, integrity,
//    freshness via a fresh nonce per eviction).
//  * Evicting a page requires ETRACK + shootdown IPIs: every core inside the
//    owning enclave may cache its translation, so each receives the IPI and
//    is forced through AEX (this is the multi-threaded overhead Table 2
//    quantifies, and what SUVM avoids entirely).
//  * An EPC page fault costs AEX + kernel + ELDU work + ERESUME; indirect
//    costs (TLB refill, cache misses) follow from the flushed TLB model.
//  * The Eleos extension: an ioctl that reports the enclave's fair share of
//    PRM so SUVM can balloon its EPC++ (the driver splits PRM evenly among
//    active enclaves, the same heuristic as the paper's implementation).
//  * EPCM-like page state is an array per enclave, indexed by virtual page
//    from the enclave's first; enclaves are an array indexed by id.

#ifndef ELEOS_SRC_SIM_SGX_DRIVER_H_
#define ELEOS_SRC_SIM_SGX_DRIVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/spinlock.h"
#include "src/crypto/gcm.h"
#include "src/sim/epc.h"
#include "src/sim/vclock.h"

namespace eleos::sim {

class Machine;
class Enclave;

using EnclaveId = uint32_t;

inline constexpr int kMaxCpus = 8;

class SgxDriver {
 public:
  explicit SgxDriver(Machine* machine);

  EnclaveId RegisterEnclave(Enclave* enclave);
  void UnregisterEnclave(EnclaveId id);

  // Reserve / release a run of virtual pages for an enclave. Reserved pages
  // consume no EPC until first touch.
  void ReservePages(Enclave& enclave, uint64_t vpage, size_t count);
  void ReleasePages(Enclave& enclave, uint64_t vpage, size_t count);

  // Ensures the page is EPC-resident, charging the full hardware-fault cost
  // to `cpu` when it is not (cpu may be null: functional-only access).
  // Returns the frame data pointer — valid only until the next driver call.
  // Throws std::out_of_range for a page that is not reserved.
  uint8_t* Touch(CpuContext* cpu, Enclave& enclave, uint64_t vpage, bool write);

  // The Eleos ioctl (§3.3 / §4.1): how many EPC frames this enclave may use;
  // today's driver splits PRM evenly among active enclaves.
  size_t AvailableFramesFor(EnclaveId id) const;

  // --- Data sealing service (EGETKEY/sealed-blob analog) ---
  // Seals an arbitrary enclave-produced blob so it survives enclave (and
  // host-process) death. The AAD binds the *enclave name* — the MRENCLAVE
  // analog — so a restarted instance of the same enclave identity (which gets
  // a fresh EnclaveId) can unseal it, but a different enclave cannot.
  struct SealedBlob {
    std::vector<uint8_t> ciphertext;
    uint8_t nonce[crypto::kGcmNonceSize] = {};
    uint8_t tag[crypto::kGcmTagSize] = {};
  };
  SealedBlob SealBlob(CpuContext* cpu, Enclave& enclave, const uint8_t* data,
                      size_t len);
  // Unseals into `out`; false on a MAC failure (tampered or wrong-enclave
  // blob). Cycle charges are identical either way.
  bool UnsealBlob(CpuContext* cpu, Enclave& enclave, const SealedBlob& blob,
                  std::vector<uint8_t>* out);

  // --- Monotonic counter service (freshness / rollback detection) ---
  // The driver outlives enclave instances (it is the "platform"), so the
  // counter is what lets a restarted enclave reject a stale sealed root.
  uint64_t BumpMonotonicCounter();
  uint64_t monotonic_counter() const;

  // Background-swapper tuning: the driver keeps at least `low` frames free,
  // evicting in batches of `batch` (mirrors the async swapper thread which
  // causes IPIs even for single-threaded enclaves — paper footnote 3).
  void ConfigureSwapper(size_t low_watermark, size_t batch);

  struct Stats {
    uint64_t faults = 0;        // hardware EPC page faults
    uint64_t evictions = 0;     // pages sealed out (EWB always writes back)
    uint64_t page_ins = 0;      // sealed pages reloaded (ELDU)
    uint64_t zero_fills = 0;    // first-touch materializations
    uint64_t ipis = 0;          // shootdown IPIs sent, one forced AEX each
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  size_t enclave_count() const;

 private:
  struct PageState {
    FrameId frame = kInvalidFrame;
    // kPageSize ciphertext of the latest eviction; null until the first.
    std::unique_ptr<uint8_t[]> sealed;
    uint8_t nonce[crypto::kGcmNonceSize] = {};
    uint8_t tag[crypto::kGcmTagSize] = {};
    bool reserved = false;    // between ReservePages and ReleasePages
    bool referenced = false;  // second-chance bit
  };

  // `pages[i]` is virtual page `base + i`. A released page keeps its entry,
  // reset to the default (unreserved) state; an unregistered enclave has no
  // pages and a null `enclave`.
  struct EnclaveRec {
    Enclave* enclave = nullptr;
    uint64_t base = 0;
    std::vector<PageState> pages;
  };

  struct ResidentRef {
    EnclaveId enclave;
    uint64_t vpage;
  };

  EnclaveRec& Rec(EnclaveId id) { return enclaves_.at(id - 1); }
  // The reserved page `vpage` of `rec`, or null.
  static PageState* Find(EnclaveRec& rec, uint64_t vpage);

  // Evicts one page (the clock hand chooses); returns false if nothing
  // evictable. `initiator` is charged the EWB cost when non-null. The owner
  // enclave of the victim is reported via `owner_out` so the caller can run
  // the ETRACK round.
  bool EvictOne(CpuContext* initiator, const Enclave** owner_out);
  void SealPage(CpuContext* cpu, EnclaveId owner, uint64_t vpage, PageState& ps);
  void UnsealPage(CpuContext* cpu, EnclaveId owner, uint64_t vpage, PageState& ps,
                  uint8_t* frame_data);
  // ETRACK round for an enclave whose page(s) are being evicted: every
  // hardware thread currently executing inside it receives a shootdown IPI
  // and is forced through AEX. `include_initiator` distinguishes the
  // asynchronous-swapper case (the faulting thread is conceptually still
  // inside — paper footnote 3) from post-AEX eviction.
  void EtrackSweep(CpuContext* initiator, const Enclave* owner,
                   bool include_initiator);
  FrameId ObtainFrame(CpuContext* cpu);
  void RunSwapper(CpuContext* cpu);

  // The driver is the kernel: one big lock serializes all paging state, like
  // the real isgx driver's per-EPC locking. Charging/LLC side effects happen
  // under it, which is fine — accounting-carrying CPUs are driven one at a
  // time, while functional-only (null-cpu) threads just need mutual exclusion.
  mutable Spinlock lock_;
  Machine* machine_;
  std::vector<EnclaveRec> enclaves_;  // indexed by EnclaveId - 1
  size_t live_enclaves_ = 0;

  std::vector<ResidentRef> resident_ring_;
  size_t clock_hand_ = 0;

  size_t swapper_low_watermark_ = 8;
  size_t swapper_batch_ = 2;

  // Every EWB page and sealed blob is AES-GCM under this key; nonces come
  // from nonce_rng_ under lock_.
  crypto::AesGcm gcm_;
  Xoshiro256 nonce_rng_;
  Stats stats_;
  uint64_t monotonic_counter_ = 0;  // guarded by lock_
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_SGX_DRIVER_H_
