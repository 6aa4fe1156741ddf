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
//  * Evicting a page whose translation may still live in another core's TLB
//    requires ETRACK + shootdown IPIs; a core inside the enclave receives
//    the IPI and is forced through AEX (this is the multi-threaded overhead
//    Table 2 quantifies, and what SUVM avoids entirely).
//  * An EPC page fault costs AEX + kernel + ELDU work + ERESUME; indirect
//    costs (TLB refill, cache misses) follow from the flushed TLB model.
//  * The Eleos extension: an ioctl that reports the enclave's fair share of
//    PRM so SUVM can balloon its EPC++ (the driver splits PRM evenly among
//    active enclaves, the same heuristic as the paper's implementation).

#ifndef ELEOS_SRC_SIM_SGX_DRIVER_H_
#define ELEOS_SRC_SIM_SGX_DRIVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
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
  uint8_t* Touch(CpuContext* cpu, Enclave& enclave, uint64_t vpage, bool write);

  // Records that `cpu`'s TLB may cache this page's translation (used to
  // decide shootdown IPIs on eviction).
  void NoteTlbPresence(Enclave& enclave, uint64_t vpage, CpuContext& cpu);

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
    uint64_t evictions = 0;     // pages sealed out (EWB)
    uint64_t writebacks = 0;    // == evictions: EWB always writes back
    uint64_t page_ins = 0;      // sealed pages reloaded (ELDU)
    uint64_t zero_fills = 0;    // first-touch materializations
    uint64_t ipis = 0;          // shootdown IPIs sent
    uint64_t shootdown_aexes = 0;  // forced AEXes on IPI receivers
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  size_t enclave_count() const;

 private:
  struct PageState {
    FrameId frame = kInvalidFrame;
    std::unique_ptr<uint8_t[]> sealed;  // kPageSize ciphertext when evicted
    uint8_t nonce[crypto::kGcmNonceSize] = {};
    uint8_t tag[crypto::kGcmTagSize] = {};
    bool has_sealed = false;
    bool referenced = false;  // second-chance bit
    // cpu_id -> tlb_epoch at last access; matches cpu.tlb_epoch while the
    // translation may still be cached.
    std::array<uint32_t, kMaxCpus> tlb_stamp = {};
  };

  struct EnclaveRec {
    Enclave* enclave = nullptr;
    std::unordered_map<uint64_t, PageState> pages;
    size_t resident = 0;
  };

  struct ResidentRef {
    EnclaveId enclave;
    uint64_t vpage;
  };

  // Evicts one page (the clock hand chooses); returns false if nothing
  // evictable. `initiator` is charged the EWB cost when non-null. The owner
  // enclave of the victim is reported via `owner_out` so the caller can run
  // the ETRACK round.
  bool EvictOne(CpuContext* initiator, EnclaveId* owner_out);
  void SealPage(CpuContext* cpu, EnclaveRec& rec, uint64_t vpage, PageState& ps);
  void UnsealPage(CpuContext* cpu, EnclaveRec& rec, uint64_t vpage, PageState& ps,
                  uint8_t* frame_data);
  // ETRACK round for an enclave whose page(s) are being evicted: every
  // hardware thread currently executing inside it receives a shootdown IPI
  // and is forced through AEX. `include_initiator` distinguishes the
  // asynchronous-swapper case (the faulting thread is conceptually still
  // inside — paper footnote 3) from post-AEX eviction.
  void EtrackSweep(CpuContext* initiator, EnclaveId owner, bool include_initiator);
  FrameId ObtainFrame(CpuContext* cpu);
  void RunSwapper(CpuContext* cpu);

  // The driver is the kernel: one big lock serializes all paging state, like
  // the real isgx driver's per-EPC locking. Charging/LLC side effects happen
  // under it, which is fine — accounting-carrying CPUs are driven one at a
  // time, while functional-only (null-cpu) threads just need mutual exclusion.
  mutable Spinlock lock_;
  Machine* machine_;
  std::unordered_map<EnclaveId, EnclaveRec> enclaves_;
  EnclaveId next_id_ = 1;

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
