// Copyright (c) Eleos reproduction authors. MIT license.
//
// Multi-enclave ballooning (§3.3): two enclaves share the PRM; each queries
// the Eleos driver ioctl for its fair share and resizes its EPC++ page cache
// accordingly — the "memory ballooning" of the paper, with the runtime (not
// a hypervisor) adjusting the working set.
//
// Run:  ./build/examples/multi_enclave

#include <cstdio>
#include <cstring>
#include <memory>

#include "src/common/rng.h"
#include "src/suvm/suvm.h"

int main() {
  using namespace eleos;

  sim::MachineConfig mc;
  mc.epc_frames = (32ull << 20) / 4096;  // 32 MiB PRM for a quick demo
  sim::Machine machine(mc);

  std::printf("== Multi-enclave EPC++ ballooning (32 MiB PRM) ==\n\n");

  suvm::SuvmConfig sc;
  sc.epc_pp_pages = (24ull << 20) / 4096;  // each *wants* 24 MiB
  sc.backing_bytes = 64ull << 20;

  sim::Enclave e1(machine, "tenant-1");
  suvm::Suvm s1(e1, sc);
  std::printf("tenant-1 alone: driver fair share = %zu frames\n",
              machine.driver().AvailableFramesFor(e1.id()));
  std::printf("tenant-1 balloon -> EPC++ target %zu pages\n\n",
              s1.BalloonPass(nullptr));

  // A second enclave starts: the fair share halves; both balloon down.
  sim::Enclave e2(machine, "tenant-2");
  suvm::Suvm s2(e2, sc);
  std::printf("tenant-2 started: fair share now %zu frames each\n",
              machine.driver().AvailableFramesFor(e1.id()));
  std::printf("tenant-1 balloon -> EPC++ target %zu pages\n",
              s1.BalloonPass(nullptr));
  std::printf("tenant-2 balloon -> EPC++ target %zu pages\n\n",
              s2.BalloonPass(nullptr));

  // Both tenants now work concurrently without thrashing the driver.
  const size_t buf = 16ull << 20;
  const uint64_t a1 = ValueOrThrow(s1.Malloc(buf));
  const uint64_t a2 = ValueOrThrow(s2.Malloc(buf));
  uint8_t page[4096];
  std::memset(page, 9, sizeof(page));
  for (size_t off = 0; off < buf; off += 4096) {
    ThrowIfError(s1.Write(nullptr, a1 + off, page, sizeof(page)));
    ThrowIfError(s2.Write(nullptr, a2 + off, page, sizeof(page)));
  }
  sim::CpuContext& cpu = machine.cpu(0);
  machine.driver().ResetStats();
  Xoshiro256 rng(1);
  const uint64_t t0 = cpu.clock.now();
  for (int i = 0; i < 2000; ++i) {
    ThrowIfError(s1.Read(&cpu, a1 + rng.NextBelow(buf / 4096) * 4096, page,
                         4096));
    ThrowIfError(s2.Read(&cpu, a2 + rng.NextBelow(buf / 4096) * 4096, page,
                         4096));
  }
  std::printf("4000 reads across both tenants: %.0f cycles/read\n",
              static_cast<double>(cpu.clock.now() - t0) / 4000.0);
  std::printf("hardware EPC faults during the run: %lu (ballooning keeps the "
              "driver out of the loop)\n",
              static_cast<unsigned long>(machine.driver().stats().faults));
  std::printf("software faults: tenant-1 %lu, tenant-2 %lu\n",
              static_cast<unsigned long>(s1.stats().major_faults.load()),
              static_cast<unsigned long>(s2.stats().major_faults.load()));

  // tenant-2 shuts down; tenant-1 balloons back up.
  return 0;
}
