// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/machine.h"

#include <string>

namespace eleos::sim {
namespace {

// Synthetic address region for kernel scratch traffic; far from both enclave
// vaddr bases ((id+1) << 40, ids < 32 => below 0x21'00000000'00) and typical
// Linux heap pointers (0x55.. and up).
constexpr uint64_t kScratchBase = 0x3f00'0000'0000ull;
constexpr uint64_t kDefaultScratchPool = 4ull << 20;  // recycled kernel buffers

}  // namespace

Machine::Machine(MachineConfig cfg)
    : costs_(cfg.costs),
      llc_(costs_),
      epc_(cfg.epc_frames != 0 ? cfg.epc_frames : costs_.prm_usable_frames),
      driver_(this, cfg.seal_mode),
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
  const uint64_t first_line = addr >> 6;
  const uint64_t last_line = (addr + len - 1) >> 6;
  uint64_t prev_vpn = UINT64_MAX;
  uint64_t charged = 0;
  size_t line_index = 0;
  for (uint64_t line = first_line; line <= last_line; ++line, ++line_index) {
    const uint64_t vpn = line >> 6;  // 64 lines per 4 KiB page
    if (vpn != prev_vpn) {
      prev_vpn = vpn;
      if (!cpu->tlb.Access(vpn)) {
        charged += kind == MemKind::kEpc ? costs_.tlb_walk_epc_cycles
                                         : costs_.tlb_walk_cycles;
      }
    }
    uint64_t cost = llc_.Access(line, write, kind, cpu->cos);
    // Hardware prefetch: within one contiguous access, misses past the first
    // two lines are streamed, not paid at random-miss latency.
    if (line_index >= 2 && cost >= costs_.llc_miss_cycles) {
      cost = kind == MemKind::kEpc ? costs_.stream_epc_line_cycles
                                   : costs_.stream_line_cycles;
    }
    charged += cost;
  }
  ChargeCost(cpu, telemetry::CostCategory::kCache, charged);
}

void Machine::StreamAccess(CpuContext* cpu, uint64_t addr, size_t len, bool write,
                           MemKind kind) {
  if (cpu == nullptr || len == 0) {
    return;
  }
  const uint64_t first_line = addr >> 6;
  const uint64_t last_line = (addr + len - 1) >> 6;
  uint64_t prev_vpn = UINT64_MAX;
  uint64_t charged = 0;
  for (uint64_t line = first_line; line <= last_line; ++line) {
    const uint64_t vpn = line >> 6;
    if (vpn != prev_vpn) {
      prev_vpn = vpn;
      if (!cpu->tlb.Access(vpn)) {
        charged += kind == MemKind::kEpc ? costs_.tlb_walk_epc_cycles
                                         : costs_.tlb_walk_cycles;
      }
    }
    llc_.Access(line, write, kind, cpu->cos);  // state effect only
    charged += kind == MemKind::kEpc ? costs_.stream_epc_line_cycles
                                     : costs_.stream_line_cycles;
  }
  ChargeCost(cpu, telemetry::CostCategory::kCache, charged);
}

void Machine::PolluteCache(size_t bytes, int cos, size_t pool_bytes) {
  if (bytes == 0) {
    return;
  }
  const uint64_t pool = pool_bytes == 0 ? kDefaultScratchPool : pool_bytes;
  const uint64_t cursor =
      scratch_cursor_.fetch_add(bytes, std::memory_order_relaxed);
  const uint64_t addr = kScratchBase + (cursor % pool);
  const uint64_t first_line = addr >> 6;
  const uint64_t last_line = (addr + bytes - 1) >> 6;
  for (uint64_t line = first_line; line <= last_line; ++line) {
    llc_.Access(line, /*write=*/true, MemKind::kUntrusted, cos);
  }
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
