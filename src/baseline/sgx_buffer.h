// Copyright (c) Eleos reproduction authors. MIT license.
//
// The "vanilla SGX" comparator: a large secure buffer whose paging is done
// entirely by the (simulated) SGX driver — every out-of-PRM access takes a
// hardware EPC fault with AEX, shootdowns and EWB/ELDU, exactly the baseline
// the paper measures SUVM against in Figures 7/9 and Tables 2/4.

#ifndef ELEOS_SRC_BASELINE_SGX_BUFFER_H_
#define ELEOS_SRC_BASELINE_SGX_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "src/common/untrusted.h"
#include "src/sim/enclave.h"

namespace eleos::baseline {

class SgxBuffer {
 public:
  SgxBuffer(sim::Enclave& enclave, size_t bytes)
      : enclave_(&enclave), bytes_(bytes), vaddr_(enclave.Alloc(bytes)) {}

  ~SgxBuffer() { enclave_->Free(vaddr_, bytes_); }

  SgxBuffer(const SgxBuffer&) = delete;
  SgxBuffer& operator=(const SgxBuffer&) = delete;

  // A range past size() throws std::out_of_range: the enclave pages
  // around the buffer may belong to other allocations.
  void Read(sim::CpuContext* cpu, size_t offset, void* dst, size_t len) {
    CheckRange(offset, len);
    enclave_->Read(cpu, vaddr_ + offset, dst, len);
  }

  void Write(sim::CpuContext* cpu, size_t offset, const void* src, size_t len) {
    CheckRange(offset, len);
    enclave_->Write(cpu, vaddr_ + offset, src, len);
  }

  template <typename T>
  T Load(sim::CpuContext* cpu, size_t index) {
    T value;
    Read(cpu, index * sizeof(T), &value, sizeof(T));
    return value;
  }

  template <typename T>
  void Store(sim::CpuContext* cpu, size_t index, const T& value) {
    Write(cpu, index * sizeof(T), &value, sizeof(T));
  }

  size_t size() const { return bytes_; }
  sim::Enclave& enclave() { return *enclave_; }

 private:
  void CheckRange(size_t offset, size_t len) const {
    if (!RangeFits(offset, len, bytes_)) {
      throw std::out_of_range("SgxBuffer: range past the buffer");
    }
  }

  sim::Enclave* enclave_;
  size_t bytes_;
  uint64_t vaddr_;
};

}  // namespace eleos::baseline

#endif  // ELEOS_SRC_BASELINE_SGX_BUFFER_H_
