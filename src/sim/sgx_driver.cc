// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/sgx_driver.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "src/crypto/sha256.h"
#include "src/sim/enclave.h"
#include "src/sim/machine.h"

namespace eleos::sim {
namespace {

// AAD binds a sealed page to its owner and virtual page so sealed blobs
// cannot be swapped between pages (same scheme EWB uses via the VA slot).
struct SealAad {
  uint64_t enclave_id;
  uint64_t vpage;
};

// Synthetic untrusted vaddr for a page's sealed blob. Charging the blob's
// host heap address would make cache-set mapping (and therefore virtual
// cycles) depend on allocator layout, which varies run to run; vpage is
// globally unique across enclaves, so it doubles as a stable address.
constexpr uint64_t kSealedBlobVaddrBase = 1ull << 46;
inline uint64_t SealedBlobVaddr(uint64_t vpage) {
  return kSealedBlobVaddrBase + vpage * kPageSize;
}

// Synthetic untrusted vaddr for data-sealing blobs (sealed roots). Distinct
// from the per-page EWB range above and from SUVM's arena base (1ull << 47).
constexpr uint64_t kDataSealVaddrBase = 7ull << 44;

}  // namespace

SgxDriver::SgxDriver(Machine* machine)
    : machine_(machine),
      gcm_(crypto::DeriveAesKey("sgx-driver-ewb", 0x5117).data()),
      nonce_rng_(0xdead5eed) {}

EnclaveId SgxDriver::RegisterEnclave(Enclave* enclave) {
  std::lock_guard guard(lock_);
  enclaves_.emplace_back().enclave = enclave;
  ++live_enclaves_;
  return static_cast<EnclaveId>(enclaves_.size());
}

void SgxDriver::UnregisterEnclave(EnclaveId id) {
  std::lock_guard guard(lock_);
  EnclaveRec& rec = Rec(id);
  if (rec.enclave == nullptr) {
    return;
  }
  for (const PageState& ps : rec.pages) {
    if (ps.frame != kInvalidFrame) {
      machine_->epc().Free(ps.frame);
    }
  }
  rec = EnclaveRec{};
  --live_enclaves_;
}

SgxDriver::PageState* SgxDriver::Find(EnclaveRec& rec, uint64_t vpage) {
  if (vpage < rec.base || vpage - rec.base >= rec.pages.size()) {
    return nullptr;
  }
  PageState& ps = rec.pages[vpage - rec.base];
  return ps.reserved ? &ps : nullptr;
}

void SgxDriver::ReservePages(Enclave& enclave, uint64_t vpage, size_t count) {
  std::lock_guard guard(lock_);
  EnclaveRec& rec = Rec(enclave.id());
  if (rec.pages.empty()) {
    rec.base = vpage;
  }
  if (vpage < rec.base) {
    throw std::invalid_argument(
        "SgxDriver::ReservePages: page below the enclave's first page");
  }
  const uint64_t first = vpage - rec.base;
  if (rec.pages.size() < first + count) {
    rec.pages.resize(first + count);
  }
  for (size_t i = 0; i < count; ++i) {
    rec.pages[first + i].reserved = true;
  }
}

void SgxDriver::ReleasePages(Enclave& enclave, uint64_t vpage, size_t count) {
  std::lock_guard guard(lock_);
  EnclaveRec& rec = Rec(enclave.id());
  for (size_t i = 0; i < count; ++i) {
    PageState* ps = Find(rec, vpage + i);
    if (ps == nullptr) {
      continue;
    }
    if (ps->frame != kInvalidFrame) {
      machine_->epc().Free(ps->frame);
    }
    *ps = PageState{};
  }
}

size_t SgxDriver::AvailableFramesFor(EnclaveId /*id*/) const {
  // Today's driver splits PRM evenly among active enclaves (paper §4.1).
  const size_t n = std::max<size_t>(enclave_count(), 1);
  return machine_->epc().total_frames() / n;
}

size_t SgxDriver::enclave_count() const {
  std::lock_guard guard(lock_);
  return live_enclaves_;
}

void SgxDriver::ConfigureSwapper(size_t low_watermark, size_t batch) {
  swapper_low_watermark_ = low_watermark;
  swapper_batch_ = batch;
}

uint8_t* SgxDriver::Touch(CpuContext* cpu, Enclave& enclave, uint64_t vpage,
                          bool /*write*/) {
  std::lock_guard guard(lock_);
  PageState* ps = Find(Rec(enclave.id()), vpage);
  if (ps == nullptr) {
    throw std::out_of_range("SgxDriver::Touch: unreserved enclave page");
  }
  if (ps->frame != kInvalidFrame) {
    ps->referenced = true;
    return machine_->epc().FrameData(ps->frame);
  }

  // --- Hardware EPC page fault ---
  ++stats_.faults;
  const CostModel& c = machine_->costs();
  SpanScope fault_span(&machine_->metrics().spans(), cpu, "sgx.fault");

  // The driver's asynchronous swapper may be evicting concurrently with the
  // enclave's execution; model it as a pre-fault batch so that IPIs hit the
  // still-inside faulting thread too (paper footnote 3: IPIs occur even for
  // single-threaded enclaves).
  RunSwapper(cpu);

  // The fault itself: AEX (exit cost + TLB flush) and kernel entry.
  machine_->ChargeCost(cpu, telemetry::CostCategory::kTransitions,
                       c.eexit_cycles);
  machine_->ChargeCost(cpu, telemetry::CostCategory::kSgxPaging,
                       c.fault_kernel_cycles);
  if (cpu != nullptr) {
    cpu->tlb.FlushAll();
  }

  ps->frame = ObtainFrame(cpu);
  ps->referenced = true;
  resident_ring_.push_back({enclave.id(), vpage});

  uint8_t* data = machine_->epc().FrameData(ps->frame);
  if (ps->sealed != nullptr) {
    UnsealPage(cpu, enclave.id(), vpage, *ps, data);
    ++stats_.page_ins;
    machine_->ChargeCost(cpu, telemetry::CostCategory::kSgxPaging,
                         c.driver_load_cycles);
  } else {
    ++stats_.zero_fills;
    machine_->ChargeCost(cpu, telemetry::CostCategory::kSgxPaging,
                         c.driver_zero_fill_cycles);
  }

  machine_->ChargeCost(cpu, telemetry::CostCategory::kTransitions,
                       c.eenter_cycles);  // ERESUME
  return data;
}

FrameId SgxDriver::ObtainFrame(CpuContext* cpu) {
  FrameId f = machine_->epc().Alloc();
  while (f == kInvalidFrame) {
    const Enclave* owner = nullptr;
    if (!EvictOne(cpu, &owner)) {
      throw std::runtime_error("SgxDriver: EPC exhausted and nothing evictable");
    }
    // Post-AEX eviction: the faulting thread has already exited; only other
    // in-enclave threads need the shootdown.
    EtrackSweep(cpu, owner, /*include_initiator=*/false);
    f = machine_->epc().Alloc();
  }
  return f;
}

void SgxDriver::RunSwapper(CpuContext* cpu) {
  if (machine_->epc().free_frames() >= swapper_low_watermark_) {
    return;
  }
  // One ETRACK round per owner enclave per batch, hitting every thread still
  // inside it — including the thread whose fault triggered us (the driver's
  // swapper runs asynchronously with enclave execution).
  const Enclave* owners[kMaxCpus * 4];
  size_t owner_count = 0;
  for (size_t i = 0; i < swapper_batch_; ++i) {
    const Enclave* owner = nullptr;
    if (!EvictOne(cpu, &owner)) {
      break;
    }
    bool seen = false;
    for (size_t j = 0; j < owner_count; ++j) {
      if (owners[j] == owner) {
        seen = true;
        break;
      }
    }
    if (!seen && owner_count < sizeof(owners) / sizeof(owners[0])) {
      owners[owner_count++] = owner;
    }
  }
  for (size_t j = 0; j < owner_count; ++j) {
    EtrackSweep(cpu, owners[j], /*include_initiator=*/true);
  }
}

bool SgxDriver::EvictOne(CpuContext* initiator, const Enclave** owner_out) {
  size_t scanned = 0;
  const size_t limit = 2 * resident_ring_.size() + 4;
  while (!resident_ring_.empty() && scanned < limit) {
    if (clock_hand_ >= resident_ring_.size()) {
      clock_hand_ = 0;
    }
    const ResidentRef ref = resident_ring_[clock_hand_];
    EnclaveRec& rec = Rec(ref.enclave);
    PageState* ps = Find(rec, ref.vpage);
    if (ps == nullptr || ps->frame == kInvalidFrame) {
      // Stale ring entry (page released or already evicted): drop lazily.
      resident_ring_[clock_hand_] = resident_ring_.back();
      resident_ring_.pop_back();
      continue;
    }
    if (ps->referenced) {
      ps->referenced = false;  // second chance
      ++clock_hand_;
      ++scanned;
      continue;
    }

    // Victim found: EWB (the caller runs the ETRACK round).
    SpanScope evict_span(&machine_->metrics().spans(), initiator, "sgx.evict");
    *owner_out = rec.enclave;
    SealPage(initiator, ref.enclave, ref.vpage, *ps);
    machine_->epc().Free(ps->frame);
    ps->frame = kInvalidFrame;
    ++stats_.evictions;
    machine_->ChargeCost(initiator, telemetry::CostCategory::kSgxPaging,
                         machine_->costs().driver_evict_cycles);
    resident_ring_[clock_hand_] = resident_ring_.back();
    resident_ring_.pop_back();
    return true;
  }
  return false;
}

void SgxDriver::EtrackSweep(CpuContext* initiator, const Enclave* owner,
                            bool include_initiator) {
  const CostModel& c = machine_->costs();
  for (size_t i = 0; i < machine_->num_cpus() && i < kMaxCpus; ++i) {
    CpuContext& target = machine_->cpu(i);
    if (target.enclave != owner) {
      continue;
    }
    if (!include_initiator && &target == initiator) {
      continue;
    }
    ++stats_.ipis;
    machine_->ChargeCost(initiator, telemetry::CostCategory::kSgxPaging,
                         c.ipi_cycles);
    // The receiving core is forced out of the enclave (AEX) and resumes.
    // The cycles land on the target's clock but are attributed to the
    // initiating thread's span — the shootdown is causally its fault's cost.
    machine_->ChargeCost(&target, telemetry::CostCategory::kTransitions,
                         c.shootdown_aex_cycles());
    target.tlb.FlushAll();
  }
}

void SgxDriver::SealPage(CpuContext* cpu, EnclaveId owner, uint64_t vpage,
                         PageState& ps) {
  if (ps.sealed == nullptr) {
    ps.sealed = std::make_unique<uint8_t[]>(kPageSize);
  }
  uint8_t* frame_data = machine_->epc().FrameData(ps.frame);
  const SealAad aad{owner, vpage};
  nonce_rng_.FillBytes(ps.nonce, crypto::kGcmNonceSize);  // lock_ is held
  gcm_.Seal(ps.nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
            frame_data, kPageSize, ps.sealed.get(), ps.tag);
  // Cache effects of the copy-out: read the EPC frame, write the blob.
  machine_->StreamAccess(cpu, vpage * kPageSize, kPageSize, /*write=*/false,
                         MemKind::kEpc);
  machine_->StreamAccess(cpu, SealedBlobVaddr(vpage), kPageSize,
                         /*write=*/true, MemKind::kUntrusted);
}

SgxDriver::SealedBlob SgxDriver::SealBlob(CpuContext* cpu, Enclave& enclave,
                                          const uint8_t* data, size_t len) {
  SealedBlob blob;
  blob.ciphertext.resize(len);
  // Bind the enclave *name*, not its id: a restarted instance has a fresh id
  // but the same identity, exactly like MRENCLAVE-keyed sealing.
  const auto aad = crypto::Sha256::Digest(enclave.name().data(),
                                          enclave.name().size());
  {
    std::lock_guard guard(lock_);
    nonce_rng_.FillBytes(blob.nonce, crypto::kGcmNonceSize);
  }
  gcm_.Seal(blob.nonce, aad.data(), aad.size(), data, len,
            blob.ciphertext.data(), blob.tag);
  enclave.ChargeGcm(cpu, len);
  machine_->StreamAccess(cpu, kDataSealVaddrBase, len, /*write=*/true,
                         MemKind::kUntrusted);
  return blob;
}

bool SgxDriver::UnsealBlob(CpuContext* cpu, Enclave& enclave,
                           const SealedBlob& blob, std::vector<uint8_t>* out) {
  out->resize(blob.ciphertext.size());
  enclave.ChargeGcm(cpu, blob.ciphertext.size());
  machine_->StreamAccess(cpu, kDataSealVaddrBase, blob.ciphertext.size(),
                         /*write=*/false, MemKind::kUntrusted);
  const auto aad = crypto::Sha256::Digest(enclave.name().data(),
                                          enclave.name().size());
  return gcm_.Open(blob.nonce, aad.data(), aad.size(), blob.ciphertext.data(),
                   blob.ciphertext.size(), blob.tag, out->data());
}

uint64_t SgxDriver::BumpMonotonicCounter() {
  std::lock_guard guard(lock_);
  return ++monotonic_counter_;
}

uint64_t SgxDriver::monotonic_counter() const {
  std::lock_guard guard(lock_);
  return monotonic_counter_;
}

void SgxDriver::UnsealPage(CpuContext* cpu, EnclaveId owner, uint64_t vpage,
                           PageState& ps, uint8_t* frame_data) {
  const SealAad aad{owner, vpage};
  if (!gcm_.Open(ps.nonce, reinterpret_cast<const uint8_t*>(&aad),
                 sizeof(aad), ps.sealed.get(), kPageSize, ps.tag,
                 frame_data)) {
    throw std::runtime_error(
        "SgxDriver: integrity check failed on EPC page reload (tampered "
        "backing memory?)");
  }
  machine_->StreamAccess(cpu, SealedBlobVaddr(vpage), kPageSize,
                         /*write=*/false, MemKind::kUntrusted);
  machine_->StreamAccess(cpu, vpage * kPageSize, kPageSize, /*write=*/true,
                         MemKind::kEpc);
}

}  // namespace eleos::sim
