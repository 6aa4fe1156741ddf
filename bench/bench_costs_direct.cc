// Copyright (c) Eleos reproduction authors. MIT license.
//
// Regenerates the measured cost constants of §2.2, §2.3 and §6.1.2:
// enclave transition costs, OCALL cost, hardware EPC fault costs, and the
// SUVM software-fault costs they are compared against (3-5x faster).

#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/mem_region.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

uint64_t MeasureEnterExit(sim::Machine& m) {
  sim::Enclave e(m);
  sim::CpuContext& cpu = m.cpu(0);
  const uint64_t t0 = cpu.clock.now();
  e.Enter(cpu);
  e.Exit(cpu);
  return cpu.clock.now() - t0;
}

uint64_t MeasureOcall(sim::Machine& m) {
  sim::Enclave e(m);
  sim::CpuContext& cpu = m.cpu(0);
  e.Enter(cpu);
  const uint64_t t0 = cpu.clock.now();
  e.Ocall(cpu, 0, [] {});
  const uint64_t cost = cpu.clock.now() - t0;
  e.Exit(cpu);
  return cost;
}

// Hardware fault costs: page-in of a sealed page, with and without eviction
// pressure (the paper's 25k combined / 40k total incl. exits & indirect).
struct HwFaultCosts {
  uint64_t pagein_only;
  uint64_t evict_and_pagein;
};

HwFaultCosts MeasureHwFaults() {
  sim::MachineConfig cfg;
  cfg.epc_frames = 2048;
  sim::Machine m(cfg);
  m.driver().ConfigureSwapper(0, 0);
  sim::Enclave e(m);
  sim::CpuContext& cpu = m.cpu(0);
  apps::EnclaveRegion buf(e, 4096ull * 4096);  // 2x the EPC
  uint8_t page[4096] = {1};
  for (size_t p = 0; p < 4096; ++p) {
    buf.Write(nullptr, p * 4096, page, 64);
  }
  // Eviction pressure: every fault evicts + loads. Normalize per *fault*
  // (some probes hit resident pages).
  m.driver().ResetStats();
  uint64_t t0 = cpu.clock.now();
  const size_t kProbes = 256;
  for (size_t i = 0; i < kProbes; ++i) {
    buf.Read(&cpu, ((i * 37) % 4096) * 4096, page, 8);
  }
  const uint64_t evict_faults = m.driver().stats().faults;
  const uint64_t evict_and_pagein =
      (cpu.clock.now() - t0) / (evict_faults == 0 ? 1 : evict_faults);

  // Page-in only: free half the frames so no eviction is needed.
  sim::Machine m2(cfg);
  m2.driver().ConfigureSwapper(0, 0);
  sim::Enclave e2(m2);
  sim::CpuContext& cpu2 = m2.cpu(0);
  apps::EnclaveRegion small(e2, 1024ull * 4096);  // half the EPC
  for (size_t p = 0; p < 1024; ++p) {
    small.Write(nullptr, p * 4096, page, 64);
  }
  // Evict everything via a second buffer, then release it.
  {
    apps::EnclaveRegion filler(e2, 2048ull * 4096);
    for (size_t p = 0; p < 2048; ++p) {
      filler.Write(nullptr, p * 4096, page, 8);
    }
  }
  m2.driver().ResetStats();
  t0 = cpu2.clock.now();
  for (size_t p = 0; p < 1024; ++p) {
    small.Read(&cpu2, p * 4096, page, 8);
  }
  const uint64_t pagein_faults = m2.driver().stats().faults;
  const uint64_t pagein_only =
      (cpu2.clock.now() - t0) / (pagein_faults == 0 ? 1 : pagein_faults);
  bench::SnapshotMetrics(m, "hw_fault_evict_pagein");
  bench::SnapshotMetrics(m2, "hw_fault_pagein_only");
  return {pagein_only, evict_and_pagein};
}

struct SuvmFaultCosts {
  uint64_t pagein_only;      // read workload: clean victims, no write-back
  uint64_t evict_and_pagein; // write workload: seal + load
};

SuvmFaultCosts MeasureSuvmFaults() {
  SuvmFaultCosts out{};
  const size_t pages = 8192;  // 4x EPC++
  const size_t kProbes = 512;
  uint8_t page[4096] = {1};

  // Read workload: warm with writes, settle residents to clean via a read
  // sweep, then measure — victims are clean drops, faults are page-in only.
  {
    sim::Machine m;
    sim::Enclave e(m);
    suvm::SuvmConfig sc;
    sc.epc_pp_pages = 2048;
    sc.backing_bytes = 64 << 20;
    suvm::Suvm s(e, sc);
    const uint64_t a = ValueOrThrow(s.Malloc(pages * 4096));
    sim::CpuContext& cpu = m.cpu(0);
    for (size_t p = 0; p < pages; ++p) {
      ThrowIfError(s.Write(nullptr, a + p * 4096, page, 4096));
    }
    for (size_t p = 0; p < pages; ++p) {
      ThrowIfError(s.Read(nullptr, a + p * 4096, page, 8));
    }
    const uint64_t faults0 = s.stats().major_faults.load();
    const uint64_t t0 = cpu.clock.now();
    for (size_t i = 0; i < kProbes; ++i) {
      ThrowIfError(s.Read(&cpu, a + ((i * 37) % pages) * 4096, page, 8));
    }
    const uint64_t faults = s.stats().major_faults.load() - faults0;
    out.pagein_only = (cpu.clock.now() - t0) / (faults == 0 ? 1 : faults);
    bench::SnapshotMetrics(m, "suvm_fault_read");
  }

  // Write workload: steady state is all-dirty — every eviction seals.
  {
    sim::Machine m;
    sim::Enclave e(m);
    suvm::SuvmConfig sc;
    sc.epc_pp_pages = 2048;
    sc.backing_bytes = 64 << 20;
    suvm::Suvm s(e, sc);
    const uint64_t a = ValueOrThrow(s.Malloc(pages * 4096));
    sim::CpuContext& cpu = m.cpu(0);
    for (size_t p = 0; p < pages; ++p) {
      ThrowIfError(s.Write(nullptr, a + p * 4096, page, 4096));
    }
    const uint64_t faults0 = s.stats().major_faults.load();
    const uint64_t t0 = cpu.clock.now();
    for (size_t i = 0; i < kProbes; ++i) {
      ThrowIfError(s.Write(&cpu, a + ((i * 61) % pages) * 4096, page, 8));
    }
    const uint64_t faults = s.stats().major_faults.load() - faults0;
    out.evict_and_pagein = (cpu.clock.now() - t0) / (faults == 0 ? 1 : faults);
    bench::SnapshotMetrics(m, "suvm_fault_write");
  }
  return out;
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "costs_direct");
  bench::PrintHeader(
      "Costs (paper §2.2, §2.3, §6.1.2)",
      "Direct transition and paging costs, hardware vs SUVM software faults");

  sim::Machine m;
  const uint64_t enter_exit = MeasureEnterExit(m);
  const uint64_t ocall = MeasureOcall(m);
  const HwFaultCosts hw = MeasureHwFaults();
  const SuvmFaultCosts sw = MeasureSuvmFaults();

  TextTable t({"operation", "cycles (sim)", "paper", "notes"});
  t.Row().Cell("EENTER + EEXIT").Cell(enter_exit).Cell("~7,100").Cell("3,800 + 3,300");
  t.Row().Cell("OCALL (SDK)").Cell(ocall).Cell("~8,000").Cell("exits + SDK + syscall");
  t.Row().Cell("plain syscall").Cell(m.costs().syscall_cycles).Cell("~250").Cell("FlexSC");
  t.Row().Cell("HW fault: page-in only").Cell(hw.pagein_only).Cell("n/a").Cell("ELDU + exits");
  t.Row()
      .Cell("HW fault: evict+page-in")
      .Cell(hw.evict_and_pagein)
      .Cell("~40,000")
      .Cell("EWB+ELDU+exits+indirect");
  t.Row()
      .Cell("SUVM fault: page-in only")
      .Cell(sw.pagein_only)
      .Cell("~8,500")
      .Cell("read workload, clean drop");
  t.Row()
      .Cell("SUVM fault: evict+page-in")
      .Cell(sw.evict_and_pagein)
      .Cell("~14,000")
      .Cell("write workload");
  t.Print();

  const double read_speedup = static_cast<double>(hw.evict_and_pagein) /
                              static_cast<double>(sw.pagein_only);
  const double write_speedup = static_cast<double>(hw.evict_and_pagein) /
                               static_cast<double>(sw.evict_and_pagein);
  std::printf(
      "\nSoftware faults are %.1fx (read) / %.1fx (write) faster than hardware"
      " faults (paper: ~5x / ~3x).\n",
      read_speedup, write_speedup);
  bench::SnapshotMetrics(m, "transitions");
  return bench::FlushMetricsOut();
}
