// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/machine.h"

#include <stdexcept>
#include <string>

namespace eleos::sim {
namespace {

// Synthetic address region for kernel scratch traffic; far from both enclave
// vaddr bases ((id+1) << 40, ids < 32 => below 0x21'00000000'00) and typical
// Linux heap pointers (0x55.. and up).
constexpr uint64_t kScratchBase = 0x3f00'0000'0000ull;
constexpr uint64_t kDefaultScratchPool = 4ull << 20;  // recycled kernel buffers
// ReserveRange's ranges: 512 GiB above the scratch pool, below the driver's
// sealed-blob addresses (1 << 46).
constexpr uint64_t kRangeBase = kScratchBase + (1ull << 39);
constexpr uint64_t kRangeLimit = 1ull << 46;

// 64-byte lines (CacheModel rejects any other size), 64 lines per 4 KiB page.
constexpr int kLineShift = 6;
constexpr int kLinesPerPageShift = 6;

// TLB walk cycles of touching the pages under lines first_line..last_line,
// one TLB lookup per page in ascending order.
uint64_t TlbWalkCycles(const CostModel& c, CpuContext* cpu, uint64_t first_line,
                       uint64_t last_line, MemKind kind) {
  const uint64_t walk =
      kind == MemKind::kEpc ? c.tlb_walk_epc_cycles : c.tlb_walk_cycles;
  uint64_t cycles = 0;
  for (uint64_t vpn = first_line >> kLinesPerPageShift;
       vpn <= last_line >> kLinesPerPageShift; ++vpn) {
    if (!cpu->tlb.Access(vpn)) {
      cycles += walk;
    }
  }
  return cycles;
}

}  // namespace

Machine::Machine(MachineConfig cfg)
    : costs_(cfg.costs),
      llc_(costs_),
      epc_(cfg.epc_frames != 0 ? cfg.epc_frames : costs_.prm_usable_frames),
      driver_(this),
      fault_injector_(cfg.fault_seed) {
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    cycles_by_cat_[c] = metrics_.GetCounter(
        std::string("sim.cycles.") +
        telemetry::CostCategoryName(static_cast<telemetry::CostCategory>(c)));
  }
  timeline_ = &metrics_.timeline();
  for (size_t i = 0; i < cpus_.size(); ++i) {
    cpus_[i] = std::make_unique<CpuContext>(this, static_cast<int>(i));
  }
}

bool Machine::AuditSpanAccounting(std::string* error) const {
  uint64_t totals[telemetry::kNumCostCategories];
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    totals[c] = cycles_by_cat_[c]->value();
  }
  return metrics_.spans().AuditCycleAccounting(totals, error);
}

std::string Machine::ExportChromeTrace() const {
  return telemetry::ExportChromeTrace(metrics_.spans(), metrics_.trace(),
                                      &metrics_.timeline());
}

std::string Machine::ExportFoldedStacks() const {
  return telemetry::ExportFoldedStacks(metrics_.spans());
}

void Machine::Access(CpuContext* cpu, uint64_t addr, size_t len, bool write,
                     MemKind kind) {
  if (cpu == nullptr || len == 0) {
    return;
  }
  const uint64_t first_line = addr >> kLineShift;
  const uint64_t last_line = (addr + len - 1) >> kLineShift;
  ChargeCost(cpu, telemetry::CostCategory::kCache,
             TlbWalkCycles(costs_, cpu, first_line, last_line, kind) +
                 llc_.AccessRange(first_line, last_line, write, kind, cpu->cos));
}

void Machine::StreamAccess(CpuContext* cpu, uint64_t addr, size_t len, bool write,
                           MemKind kind) {
  if (cpu == nullptr || len == 0) {
    return;
  }
  const uint64_t first_line = addr >> kLineShift;
  const uint64_t last_line = (addr + len - 1) >> kLineShift;
  llc_.AccessRange(first_line, last_line, write, kind, cpu->cos);  // state only
  const uint64_t per_line = kind == MemKind::kEpc ? costs_.stream_epc_line_cycles
                                                  : costs_.stream_line_cycles;
  ChargeCost(cpu, telemetry::CostCategory::kCache,
             TlbWalkCycles(costs_, cpu, first_line, last_line, kind) +
                 (last_line - first_line + 1) * per_line);
}

void Machine::PolluteCache(size_t bytes, int cos, size_t pool_bytes) {
  if (bytes == 0) {
    return;
  }
  const uint64_t pool = pool_bytes == 0 ? kDefaultScratchPool : pool_bytes;
  const uint64_t cursor =
      scratch_cursor_.fetch_add(bytes, std::memory_order_relaxed);
  const uint64_t addr = kScratchBase + (cursor % pool);
  llc_.AccessRange(addr >> kLineShift, (addr + bytes - 1) >> kLineShift,
                   /*write=*/true, MemKind::kUntrusted, cos);
}

uint64_t Machine::ReserveRange(size_t bytes) {
  constexpr uint64_t kSpan = kRangeLimit - kRangeBase;
  if (bytes > kSpan) {
    throw std::length_error("Machine::ReserveRange: range too large");
  }
  const uint64_t len = (bytes + kPageSize - 1) & ~(kPageSize - 1);
  const uint64_t off = range_cursor_.fetch_add(len, std::memory_order_relaxed);
  if (off > kSpan - len) {
    throw std::length_error("Machine::ReserveRange: synthetic ranges exhausted");
  }
  return kRangeBase + off;
}

void Machine::TouchScratch(CpuContext* cpu, size_t bytes, size_t pool_bytes) {
  if (cpu == nullptr || bytes == 0) {
    return;
  }
  const uint64_t pool = pool_bytes == 0 ? kDefaultScratchPool : pool_bytes;
  const uint64_t cursor =
      scratch_cursor_.fetch_add(bytes, std::memory_order_relaxed);
  const uint64_t addr = kScratchBase + (cursor % pool);
  // Kernel I/O buffers are filled sequentially: streaming charge + pollution.
  StreamAccess(cpu, addr, bytes, /*write=*/true, MemKind::kUntrusted);
}

}  // namespace eleos::sim
