// Copyright (c) Eleos reproduction authors. MIT license.
//
// The enclave abstraction: an isolated virtual address space of EPC-backed
// pages plus the trusted/untrusted transition machinery (EENTER, EEXIT,
// OCALL, AEX).
//
// All enclave memory accesses go through Enclave::Data/Read/Write so that
// (a) the simulated driver can page frames in and out underneath — the
// returned raw pointer is valid only until the next driver call — and
// (b) every access is charged through the TLB/LLC models.

#ifndef ELEOS_SRC_SIM_ENCLAVE_H_
#define ELEOS_SRC_SIM_ENCLAVE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "src/sim/machine.h"

namespace eleos::sim {

class Enclave {
 public:
  explicit Enclave(Machine& machine, std::string name = "enclave");
  ~Enclave();

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  EnclaveId id() const { return id_; }
  Machine& machine() { return *machine_; }
  const std::string& name() const { return name_; }

  // --- Trusted address space (page-granular bump allocator) ---

  // Reserves `bytes` (rounded up to pages) of enclave virtual memory and
  // returns its vaddr. Pages consume EPC lazily on first touch.
  uint64_t Alloc(size_t bytes);
  void Free(uint64_t vaddr, size_t bytes);

  // Ensures residency of the page containing [vaddr, vaddr+len) (must not
  // cross a page boundary), charges the access, and returns a live pointer.
  uint8_t* Data(CpuContext* cpu, uint64_t vaddr, size_t len, bool write);

  // Page-crossing convenience accessors.
  void Read(CpuContext* cpu, uint64_t vaddr, void* dst, size_t len);
  void Write(CpuContext* cpu, uint64_t vaddr, const void* src, size_t len);

  // --- Transitions ---

  void Enter(CpuContext& cpu);  // EENTER
  void Exit(CpuContext& cpu);   // EEXIT: flushes the TLB (indirect cost!)

  // The SDK OCALL path: exit, run `fn` untrusted (its kernel side touches
  // `io_bytes` of buffers, polluting the LLC), re-enter. Returns fn's result.
  template <typename Fn>
  decltype(auto) Ocall(CpuContext& cpu, size_t io_bytes, Fn&& fn) {
    const CostModel& c = machine_->costs();
    SpanScope span(&machine_->metrics().spans(), &cpu, "enclave.ocall");
    Exit(cpu);
    machine_->ChargeCost(&cpu, telemetry::CostCategory::kTransitions,
                         c.ocall_sdk_cycles + c.syscall_cycles);
    if (io_bytes > 0) {  // io_bytes == 0: the callee models its own buffers
      machine_->TouchScratch(&cpu, io_bytes + c.syscall_kernel_footprint);
    }
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      std::forward<Fn>(fn)();
      Enter(cpu);
    } else {
      auto result = std::forward<Fn>(fn)();
      Enter(cpu);
      return result;
    }
  }

  int threads_inside() const { return threads_inside_; }

  // --- In-enclave crypto cycle charges (AES-NI rates) ---
  void ChargeGcm(CpuContext* cpu, size_t bytes);
  void ChargeCtr(CpuContext* cpu, size_t bytes);

  // Total pages currently reserved.
  size_t reserved_pages() const { return reserved_pages_; }

 private:
  Machine* machine_;
  std::string name_;
  EnclaveId id_;
  uint64_t vaddr_base_;
  uint64_t bump_ = 0;
  size_t reserved_pages_ = 0;
  int threads_inside_ = 0;
};

// RAII ECALL scope: enters on construction, exits on destruction.
class EcallScope {
 public:
  EcallScope(Enclave& enclave, CpuContext& cpu) : enclave_(enclave), cpu_(cpu) {
    enclave_.Enter(cpu_);
  }
  ~EcallScope() { enclave_.Exit(cpu_); }
  EcallScope(const EcallScope&) = delete;
  EcallScope& operator=(const EcallScope&) = delete;

 private:
  Enclave& enclave_;
  CpuContext& cpu_;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_ENCLAVE_H_
