// Copyright (c) Eleos reproduction authors. MIT license.
//
// Quickstart: the smallest end-to-end Eleos program.
//
// Builds a simulated SGX machine, creates an enclave, and shows the two
// Eleos services side by side with what they replace:
//   1. An exit-less RPC call vs a classic OCALL (system calls).
//   2. A SUVM secure buffer vs native SGX hardware paging (secure memory).
//
// Run:  ./build/examples/quickstart

#include <cstdio>
#include <cstring>

#include "src/rpc/rpc_manager.h"
#include "src/suvm/spointer.h"
#include "src/suvm/suvm.h"

int main() {
  using namespace eleos;

  // A simulated Skylake SGX machine: 8 MiB LLC, ~90 MiB usable EPC, the
  // paper's measured transition/paging costs.
  sim::Machine machine;
  sim::Enclave enclave(machine, "quickstart");
  sim::CpuContext& cpu = machine.cpu(0);

  std::printf("== Eleos quickstart ==\n\n");

  // --- 1. System calls: OCALL vs exit-less RPC -------------------------
  enclave.Enter(cpu);

  uint64_t t0 = cpu.clock.now();
  const int via_ocall = enclave.Ocall(cpu, /*io_bytes=*/64, [] {
    return 42;  // untrusted work (e.g. recv()), reached by exiting the enclave
  });
  const uint64_t ocall_cycles = cpu.clock.now() - t0;

  rpc::RpcManager rpc(enclave, {.mode = rpc::RpcManager::Mode::kThreaded,
                                .use_cat = true,
                                .workers = 1});
  cpu.cos = rpc.enclave_cos();  // run with the enclave's LLC partition

  t0 = cpu.clock.now();
  const int via_rpc = rpc.Call(&cpu, /*io_bytes=*/64, [] {
    return 42;  // same untrusted work, executed by a worker thread instead
  });
  const uint64_t rpc_cycles = cpu.clock.now() - t0;

  std::printf("system call via OCALL:       %5lu cycles (result %d)\n",
              static_cast<unsigned long>(ocall_cycles), via_ocall);
  std::printf("system call via Eleos RPC:   %5lu cycles (result %d) -> %.1fx faster\n\n",
              static_cast<unsigned long>(rpc_cycles), via_rpc,
              static_cast<double>(ocall_cycles) / static_cast<double>(rpc_cycles));

  // --- 2. Secure memory: SUVM spointers --------------------------------
  // A 4 MiB secure array managed by SUVM: paged by *trusted user-space*
  // code, with AES-GCM-sealed pages in untrusted memory — no enclave exits.
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 256;  // 1 MiB page cache: the array does not fit -> paging
  cfg.backing_bytes = 16ull << 20;
  suvm::Suvm suvm(enclave, cfg);

  sim::ScopedCpu bind(&cpu);  // spointers charge the bound simulated CPU
  auto numbers = suvm::SuvmAlloc<uint64_t>(suvm, 512 * 1024);  // 4 MiB

  for (int i = 0; i < 512 * 1024; ++i) {
    numbers[i] = static_cast<uint64_t>(i) * 3;
  }
  uint64_t sum = 0;
  for (int i = 0; i < 512 * 1024; i += 4096) {
    sum += numbers.GetAt(i);  // Get() keeps pages clean (no write-back)
  }

  std::printf("SUVM: stored 4 MiB through a 1 MiB page cache\n");
  std::printf("  software page faults: %lu (handled inside the enclave)\n",
              static_cast<unsigned long>(suvm.stats().major_faults.load()));
  std::printf("  evictions: %lu, write-backs: %lu, clean drops: %lu\n",
              static_cast<unsigned long>(suvm.stats().evictions.load()),
              static_cast<unsigned long>(suvm.stats().writebacks.load()),
              static_cast<unsigned long>(suvm.stats().clean_drops.load()));
  std::printf("  hardware EPC faults during SUVM paging: %lu\n",
              static_cast<unsigned long>(machine.driver().stats().faults));
  std::printf("  checksum: %lu\n\n", static_cast<unsigned long>(sum));

  enclave.Exit(cpu);
  std::printf("done: %lu total virtual cycles (%.2f ms at 3.4 GHz)\n",
              static_cast<unsigned long>(cpu.clock.now()),
              machine.costs().CyclesToSeconds(cpu.clock.now()) * 1e3);
  return 0;
}
