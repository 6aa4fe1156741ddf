// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 7: SUVM speedup over native SGX paging for random 4 KiB accesses,
// with one thread (7a) and four threads (7b), sweeping the buffer size from
// in-EPC to far beyond it. EPC++ is fixed at 60 MiB, as in the paper.
// Also reports the hardware-fault counts that 7a overlays.

#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/sgx_buffer.h"
#include "src/common/rng.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

struct RunResult {
  uint64_t cycles = 0;      // max over the participating threads
  uint64_t hw_faults = 0;   // hardware EPC faults during the measured phase
  uint64_t sw_faults = 0;   // SUVM software faults
};

constexpr size_t kAccesses = 12000;  // per configuration (paper: 100k)

RunResult RunSgx(size_t buffer_bytes, bool write, size_t threads) {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  baseline::SgxBuffer buffer(enclave, buffer_bytes);
  uint8_t page[4096];
  std::memset(page, 1, sizeof(page));
  const size_t pages = buffer_bytes / 4096;
  for (size_t p = 0; p < pages; ++p) {  // materialize + seal (unmeasured)
    buffer.Write(nullptr, p * 4096, page, 4096);
  }
  for (size_t t = 0; t < threads; ++t) {
    enclave.Enter(machine.cpu(t));
  }
  machine.driver().ResetStats();
  Xoshiro256 rng(99);
  for (size_t i = 0; i < kAccesses; ++i) {
    sim::CpuContext& cpu = machine.cpu(i % threads);
    const uint64_t off = rng.NextBelow(pages) * 4096;
    if (write) {
      buffer.Write(&cpu, off, page, 4096);
    } else {
      buffer.Read(&cpu, off, page, 4096);
    }
  }
  RunResult r;
  for (size_t t = 0; t < threads; ++t) {
    r.cycles = std::max(r.cycles, machine.cpu(t).clock.now());
    enclave.Exit(machine.cpu(t));
  }
  r.hw_faults = machine.driver().stats().faults;
  char label[64];
  std::snprintf(label, sizeof(label), "sgx_%zumib_%s_t%zu", buffer_bytes >> 20,
                write ? "write" : "read", threads);
  bench::SnapshotMetrics(machine, label);
  return r;
}

RunResult RunSuvm(size_t buffer_bytes, bool write, size_t threads) {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = (60ull << 20) / 4096;
  size_t backing = 1;
  while (backing < 2 * buffer_bytes) {
    backing <<= 1;
  }
  sc.backing_bytes = backing;
  suvm::Suvm suvm(enclave, sc);
  const uint64_t addr = ValueOrThrow(suvm.Malloc(buffer_bytes));
  uint8_t page[4096];
  std::memset(page, 1, sizeof(page));
  const size_t pages = buffer_bytes / 4096;
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Write(nullptr, addr + p * 4096, page, 4096));
  }
  if (!write) {
    for (size_t p = 0; p < pages; ++p) {  // settle residents to clean
      ThrowIfError(suvm.Read(nullptr, addr + p * 4096, page, 8));
    }
  }
  for (size_t t = 0; t < threads; ++t) {
    enclave.Enter(machine.cpu(t));
  }
  machine.driver().ResetStats();
  const uint64_t sw_faults_before = suvm.stats().major_faults.load();
  Xoshiro256 rng(99);
  for (size_t i = 0; i < kAccesses; ++i) {
    sim::CpuContext& cpu = machine.cpu(i % threads);
    const uint64_t off = rng.NextBelow(pages) * 4096;
    if (write) {
      ThrowIfError(suvm.Write(&cpu, addr + off, page, 4096));
    } else {
      ThrowIfError(suvm.Read(&cpu, addr + off, page, 4096));
    }
  }
  RunResult r;
  for (size_t t = 0; t < threads; ++t) {
    r.cycles = std::max(r.cycles, machine.cpu(t).clock.now());
    enclave.Exit(machine.cpu(t));
  }
  r.hw_faults = machine.driver().stats().faults;
  r.sw_faults = suvm.stats().major_faults.load() - sw_faults_before;
  char label[64];
  std::snprintf(label, sizeof(label), "suvm_%zumib_%s_t%zu", buffer_bytes >> 20,
                write ? "write" : "read", threads);
  bench::SnapshotMetrics(machine, label);
  return r;
}

void RunFigure(size_t threads) {
  std::printf("\n--- Figure 7%c: %zu thread(s), random 4 KiB accesses ---\n",
              threads == 1 ? 'a' : 'b', threads);
  TextTable t({"buffer", "op", "SGX cyc/acc", "SUVM cyc/acc", "speedup",
               "SGX HW faults", "SUVM HW faults", "SUVM SW faults"});
  const size_t sizes[] = {60ull << 20, 128ull << 20, 256ull << 20, 512ull << 20};
  for (size_t size : sizes) {
    for (bool write : {false, true}) {
      const RunResult sgx = RunSgx(size, write, threads);
      const RunResult suvm = RunSuvm(size, write, threads);
      char sp[32];
      snprintf(sp, sizeof(sp), "%.1fx",
               static_cast<double>(sgx.cycles) / static_cast<double>(suvm.cycles));
      t.Row()
          .Cell(bench::Mib(size))
          .Cell(write ? "write" : "read")
          .Cell(sgx.cycles / kAccesses)
          .Cell(suvm.cycles / kAccesses)
          .Cell(sp)
          .Cell(sgx.hw_faults)
          .Cell(suvm.hw_faults)
          .Cell(suvm.sw_faults);
    }
  }
  t.Print();
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig07_suvm_speedup");
  bench::PrintHeader("Figure 7",
                     "SUVM speedup over native SGX paging (EPC++ = 60 MiB)");
  RunFigure(1);
  RunFigure(4);
  std::printf(
      "\nShape targets: ~1x inside the EPC; ~5.5x reads / ~3x writes beyond "
      "it; SUVM takes ~0 hardware faults; 4-thread speedups exceed 1-thread "
      "(no TLB-shootdown IPIs in SUVM).\n");
  return bench::FlushMetricsOut();
}
