// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/enclave.h"

namespace eleos::sim {
namespace {
constexpr uint64_t kVaddrStride = 1ull << 40;
}  // namespace

Enclave::Enclave(Machine& machine, std::string name)
    : machine_(&machine), name_(std::move(name)) {
  id_ = machine_->driver().RegisterEnclave(this);
  vaddr_base_ = (static_cast<uint64_t>(id_) + 1) * kVaddrStride;
}

Enclave::~Enclave() { machine_->driver().UnregisterEnclave(id_); }

uint64_t Enclave::Alloc(size_t bytes) {
  const size_t pages = (bytes + kPageSize - 1) / kPageSize;
  const uint64_t vaddr = vaddr_base_ + bump_;
  bump_ += pages * kPageSize;
  machine_->driver().ReservePages(*this, vaddr / kPageSize, pages);
  reserved_pages_ += pages;
  return vaddr;
}

void Enclave::Free(uint64_t vaddr, size_t bytes) {
  const size_t pages = (bytes + kPageSize - 1) / kPageSize;
  machine_->driver().ReleasePages(*this, vaddr / kPageSize, pages);
  reserved_pages_ -= pages;
}

uint8_t* Enclave::Data(CpuContext* cpu, uint64_t vaddr, size_t len, bool write) {
  const size_t offset = vaddr % kPageSize;
  assert(offset + len <= kPageSize && "Data() must not cross a page boundary");
  uint8_t* frame = machine_->driver().Touch(cpu, *this, vaddr / kPageSize, write);
  machine_->Access(cpu, vaddr, len, write, MemKind::kEpc);
  return frame + offset;
}

void Enclave::Read(CpuContext* cpu, uint64_t vaddr, void* dst, size_t len) {
  auto* out = static_cast<uint8_t*>(dst);
  while (len > 0) {
    const size_t in_page = kPageSize - (vaddr % kPageSize);
    const size_t chunk = len < in_page ? len : in_page;
    const uint8_t* src = Data(cpu, vaddr, chunk, /*write=*/false);
    std::memcpy(out, src, chunk);
    out += chunk;
    vaddr += chunk;
    len -= chunk;
  }
}

void Enclave::Write(CpuContext* cpu, uint64_t vaddr, const void* src, size_t len) {
  const auto* in = static_cast<const uint8_t*>(src);
  while (len > 0) {
    const size_t in_page = kPageSize - (vaddr % kPageSize);
    const size_t chunk = len < in_page ? len : in_page;
    uint8_t* dst = Data(cpu, vaddr, chunk, /*write=*/true);
    std::memcpy(dst, in, chunk);
    in += chunk;
    vaddr += chunk;
    len -= chunk;
  }
}

void Enclave::Enter(CpuContext& cpu) {
  SpanScope span(&machine_->metrics().spans(), &cpu, "enclave.enter");
  machine_->ChargeCost(&cpu, telemetry::CostCategory::kTransitions,
                       machine_->costs().eenter_cycles);
  cpu.enclave = this;
  ++threads_inside_;
}

void Enclave::Exit(CpuContext& cpu) {
  SpanScope span(&machine_->metrics().spans(), &cpu, "enclave.exit");
  machine_->ChargeCost(&cpu, telemetry::CostCategory::kTransitions,
                       machine_->costs().eexit_cycles);
  cpu.tlb.FlushAll();
  cpu.enclave = nullptr;
  --threads_inside_;
}

void Enclave::ChargeGcm(CpuContext* cpu, size_t bytes) {
  const CostModel& c = machine_->costs();
  const uint64_t cycles =
      c.aes_gcm_setup_cycles +
      static_cast<uint64_t>(c.aes_gcm_cycles_per_byte *
                            static_cast<double>(bytes));
  machine_->ChargeCost(cpu, telemetry::CostCategory::kCrypto, cycles);
}

void Enclave::ChargeCtr(CpuContext* cpu, size_t bytes) {
  const CostModel& c = machine_->costs();
  const uint64_t cycles = static_cast<uint64_t>(
      c.aes_ctr_cycles_per_byte * static_cast<double>(bytes));
  machine_->ChargeCost(cpu, telemetry::CostCategory::kCrypto, cycles);
}

}  // namespace eleos::sim
