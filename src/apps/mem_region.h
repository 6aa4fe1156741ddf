// Copyright (c) Eleos reproduction authors. MIT license.
//
// A uniform view over the three places server state can live in the paper's
// experiments: plain untrusted memory (the no-SGX baseline), enclave memory
// paged by the SGX driver (vanilla SGX), and SUVM. Applications written
// against MemRegion run unmodified across all three backends, which is what
// lets one harness produce every bar of a figure.

#ifndef ELEOS_SRC_APPS_MEM_REGION_H_
#define ELEOS_SRC_APPS_MEM_REGION_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "src/common/status.h"
#include "src/common/untrusted.h"
#include "src/sim/enclave.h"
#include "src/sim/vclock.h"
#include "src/suvm/suvm.h"
#include "src/suvm/suvm_c.h"

namespace eleos::apps {

class MemRegion {
 public:
  virtual ~MemRegion() = default;
  virtual void Read(sim::CpuContext* cpu, uint64_t off, void* dst, size_t n) = 0;
  virtual void Write(sim::CpuContext* cpu, uint64_t off, const void* src,
                     size_t n) = 0;
  virtual size_t size() const = 0;

  // Error-returning variants. A range past size() is kInvalidArgument on
  // every backend (Read/Write throw for it). Backends whose in-range accesses
  // cannot fail (untrusted DRAM, driver-paged enclave memory) inherit these
  // wrappers; SuvmRegion overrides them to surface integrity/paging failures
  // as codes so the application can degrade instead of unwinding.
  virtual Status TryRead(sim::CpuContext* cpu, uint64_t off, void* dst,
                         size_t n) {
    if (!RangeFits(off, n, size())) {
      return Status::InvalidArgument(kPastEndMsg);
    }
    Read(cpu, off, dst, n);
    return Status::Ok();
  }
  virtual Status TryWrite(sim::CpuContext* cpu, uint64_t off, const void* src,
                          size_t n) {
    if (!RangeFits(off, n, size())) {
      return Status::InvalidArgument(kPastEndMsg);
    }
    Write(cpu, off, src, n);
    return Status::Ok();
  }

  template <typename T>
  T Load(sim::CpuContext* cpu, uint64_t off) {
    T v;
    Read(cpu, off, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void Store(sim::CpuContext* cpu, uint64_t off, const T& v) {
    Write(cpu, off, &v, sizeof(T));
  }

 protected:
  static constexpr char kPastEndMsg[] = "MemRegion: range past the region";

  // The throwing backends' range check: the memory around a region may
  // belong to other allocations.
  void CheckRange(uint64_t off, size_t n) const {
    if (!RangeFits(off, n, size())) {
      throw std::out_of_range(kPastEndMsg);
    }
  }
};

// Plain host memory: the untrusted baseline. Accesses are charged at
// untrusted-DRAM rates through the cache/TLB models, at a synthetic range
// (Machine::ReserveRange) as large as the region.
class UntrustedRegion : public MemRegion {
 public:
  UntrustedRegion(sim::Machine& machine, size_t bytes)
      : machine_(&machine),
        bytes_(bytes),
        vaddr_(machine.ReserveRange(bytes)),
        data_(new uint8_t[bytes]()) {}

  void Read(sim::CpuContext* cpu, uint64_t off, void* dst, size_t n) override {
    CheckRange(off, n);
    machine_->Access(cpu, vaddr_ + off, n, /*write=*/false,
                     sim::MemKind::kUntrusted);
    std::memcpy(dst, data_.get() + off, n);
  }
  void Write(sim::CpuContext* cpu, uint64_t off, const void* src,
             size_t n) override {
    CheckRange(off, n);
    machine_->Access(cpu, vaddr_ + off, n, /*write=*/true,
                     sim::MemKind::kUntrusted);
    std::memcpy(data_.get() + off, src, n);
  }
  size_t size() const override { return bytes_; }

 private:
  sim::Machine* machine_;
  size_t bytes_;
  uint64_t vaddr_;
  std::unique_ptr<uint8_t[]> data_;
};

// Enclave memory paged by the simulated SGX driver: the vanilla-SGX
// comparator the paper measures SUVM against (Figs 7 and 9, Tables 2 and 4).
// Every out-of-PRM access takes a hardware EPC fault with AEX, shootdowns
// and EWB/ELDU.
class EnclaveRegion : public MemRegion {
 public:
  EnclaveRegion(sim::Enclave& enclave, size_t bytes)
      : enclave_(&enclave), bytes_(bytes), vaddr_(enclave.Alloc(bytes)) {}
  ~EnclaveRegion() override { enclave_->Free(vaddr_, bytes_); }

  EnclaveRegion(const EnclaveRegion&) = delete;
  EnclaveRegion& operator=(const EnclaveRegion&) = delete;

  void Read(sim::CpuContext* cpu, uint64_t off, void* dst, size_t n) override {
    CheckRange(off, n);
    enclave_->Read(cpu, vaddr_ + off, dst, n);
  }
  void Write(sim::CpuContext* cpu, uint64_t off, const void* src,
             size_t n) override {
    CheckRange(off, n);
    enclave_->Write(cpu, vaddr_ + off, src, n);
  }
  size_t size() const override { return bytes_; }

 private:
  sim::Enclave* enclave_;
  size_t bytes_;
  uint64_t vaddr_;
};

// SUVM-backed memory (one big suvm_malloc). `direct_reads` switches GETs to
// the sub-page direct-access path (§3.2.4).
class SuvmRegion : public MemRegion {
 public:
  SuvmRegion(suvm::Suvm& suvm, size_t bytes, bool direct_access = false)
      : suvm_(&suvm), bytes_(bytes), direct_(direct_access) {
    addr_ = ValueOrThrow(suvm.Malloc(bytes));
  }
  ~SuvmRegion() override { suvm_->Free(addr_); }

  // Accesses go through SUVM's fault-handler paths — routed via the C-level
  // interface, which is how the paper's C applications consume SUVM;
  // exercising it here keeps both bindings on one code path. A transient MAC
  // failure (in-flight tamper) is absorbed by the single retry; persistent
  // corruption, rollback, a crashed instance, or EPC++ exhaustion surface as
  // a Status (Try*) or an exception (Read/Write).
  Status TryRead(sim::CpuContext* cpu, uint64_t off, void* dst,
                 size_t n) override {
    if (!RangeFits(off, n, bytes_)) {
      return Status::InvalidArgument(kPastEndMsg);
    }
    sim::ScopedCpu bind(cpu);  // the C ABI has no cpu parameter
    suvm_ctx* ctx = suvm_ctx_from(suvm_);
    const suvm_status_t code =
        direct_ ? suvm_read_direct(ctx, addr_ + off, dst, n)
                : suvm_get_bytes(ctx, addr_ + off, dst, n);
    return FromC(code, "SuvmRegion: read failed");
  }
  Status TryWrite(sim::CpuContext* cpu, uint64_t off, const void* src,
                  size_t n) override {
    if (!RangeFits(off, n, bytes_)) {
      return Status::InvalidArgument(kPastEndMsg);
    }
    sim::ScopedCpu bind(cpu);
    suvm_ctx* ctx = suvm_ctx_from(suvm_);
    const suvm_status_t code =
        direct_ ? suvm_write_direct(ctx, addr_ + off, src, n)
                : suvm_set_bytes(ctx, addr_ + off, src, n);
    return FromC(code, "SuvmRegion: write failed");
  }
  void Read(sim::CpuContext* cpu, uint64_t off, void* dst, size_t n) override {
    ThrowIfError(TryRead(cpu, off, dst, n));
  }
  void Write(sim::CpuContext* cpu, uint64_t off, const void* src,
             size_t n) override {
    ThrowIfError(TryWrite(cpu, off, src, n));
  }
  size_t size() const override { return bytes_; }

 private:
  static Status FromC(suvm_status_t code, const char* what) {
    if (code == SUVM_OK) {
      return Status::Ok();
    }
    return Status(static_cast<StatusCode>(code), what);
  }

  suvm::Suvm* suvm_;
  size_t bytes_;
  bool direct_;
  uint64_t addr_;
};

}  // namespace eleos::apps

#endif  // ELEOS_SRC_APPS_MEM_REGION_H_
