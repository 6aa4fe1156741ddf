// Copyright (c) Eleos reproduction authors. MIT license.
//
// Table 2: shootdown IPIs and page-fault counts for random 4 KiB reads from
// a 200 MiB buffer, 1 and 4 enclave threads, SGX vs SUVM. SGX evictions
// require ETRACK + IPIs (forcing AEX on in-enclave cores); SUVM's software
// paging needs none, which is why its multithreaded speedup is higher.

#include <cstring>

#include "bench/bench_util.h"
#include "src/baseline/sgx_buffer.h"
#include "src/common/rng.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

constexpr size_t kBufferBytes = 200ull << 20;
constexpr size_t kAccesses = 12000;  // paper: 100k

struct Row {
  uint64_t cycles;
  uint64_t ipis;
  uint64_t faults;
};

Row RunSgx(size_t threads) {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  baseline::SgxBuffer buffer(enclave, kBufferBytes);
  uint8_t page[4096];
  std::memset(page, 1, sizeof(page));
  const size_t pages = kBufferBytes / 4096;
  for (size_t p = 0; p < pages; ++p) {
    buffer.Write(nullptr, p * 4096, page, 4096);
  }
  for (size_t t = 0; t < threads; ++t) {
    enclave.Enter(machine.cpu(t));
  }
  machine.driver().ResetStats();
  Xoshiro256 rng(5);
  for (size_t i = 0; i < kAccesses; ++i) {
    buffer.Read(&machine.cpu(i % threads), rng.NextBelow(pages) * 4096, page, 4096);
  }
  Row r{0, machine.driver().stats().ipis, machine.driver().stats().faults};
  for (size_t t = 0; t < threads; ++t) {
    r.cycles = std::max(r.cycles, machine.cpu(t).clock.now());
    enclave.Exit(machine.cpu(t));
  }
  char label[64];
  std::snprintf(label, sizeof(label), "sgx_t%zu", threads);
  bench::SnapshotMetrics(machine, label);
  return r;
}

Row RunSuvm(size_t threads) {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = (60ull << 20) / 4096;
  sc.backing_bytes = 512ull << 20;
  suvm::Suvm suvm(enclave, sc);
  const uint64_t addr = ValueOrThrow(suvm.Malloc(kBufferBytes));
  uint8_t page[4096];
  std::memset(page, 1, sizeof(page));
  const size_t pages = kBufferBytes / 4096;
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Write(nullptr, addr + p * 4096, page, 4096));
  }
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Read(nullptr, addr + p * 4096, page, 8));
  }
  for (size_t t = 0; t < threads; ++t) {
    enclave.Enter(machine.cpu(t));
  }
  machine.driver().ResetStats();
  const uint64_t sw_faults_before = suvm.stats().major_faults.load();
  Xoshiro256 rng(5);
  for (size_t i = 0; i < kAccesses; ++i) {
    ThrowIfError(suvm.Read(&machine.cpu(i % threads),
                           addr + rng.NextBelow(pages) * 4096, page, 4096));
  }
  Row r{0, machine.driver().stats().ipis,
        suvm.stats().major_faults.load() - sw_faults_before};
  for (size_t t = 0; t < threads; ++t) {
    r.cycles = std::max(r.cycles, machine.cpu(t).clock.now());
    enclave.Exit(machine.cpu(t));
  }
  char label[64];
  std::snprintf(label, sizeof(label), "suvm_t%zu", threads);
  bench::SnapshotMetrics(machine, label);
  return r;
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "tab02_ipi");
  bench::PrintHeader("Table 2",
                     "IPIs and page faults: 4 KiB random reads from 200 MiB "
                     "(SGX hardware paging vs SUVM; paper used 100k reads)");

  TextTable t({"threads", "SGX IPIs", "SUVM IPIs", "SGX faults", "SUVM faults",
               "SUVM speedup", "paper speedup"});
  const char* paper[] = {"4.5x", "5.5x"};
  int row = 0;
  for (size_t threads : {1u, 4u}) {
    const Row sgx = RunSgx(threads);
    const Row suvm = RunSuvm(threads);
    char sp[32];
    snprintf(sp, sizeof(sp), "%.1fx",
             static_cast<double>(sgx.cycles) / static_cast<double>(suvm.cycles));
    t.Row()
        .Cell(static_cast<uint64_t>(threads))
        .Cell(sgx.ipis)
        .Cell(suvm.ipis)
        .Cell(sgx.faults)
        .Cell(suvm.faults)
        .Cell(sp)
        .Cell(paper[row++]);
  }
  t.Print();
  std::printf(
      "\nShape targets: SGX sends IPIs (more with 4 threads); SUVM sends "
      "none; SUVM takes more (software) faults because EPC++ (60 MiB) is "
      "smaller than usable PRM (~90 MiB); speedup grows with threads.\n");
  return bench::FlushMetricsOut();
}
