// Copyright (c) Eleos reproduction authors. MIT license.
//
// The paper's biometric identity-checking server (§5.2) as a runnable
// example: a database of LBP face histograms stored in SUVM (several times
// larger than the simulated EPC), serving encrypted verification requests
// without a single enclave exit on the hot path.
//
// Run:  ./build/examples/face_verification [people]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/apps/faceverif.h"
#include "src/rpc/rpc_manager.h"
#include "src/suvm/suvm.h"

int main(int argc, char** argv) {
  using namespace eleos;

  const size_t people = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 200;
  const size_t db_bytes = people * apps::kHistogramBytes;
  std::printf("== Face verification: %zu identities, %.0f MiB database ==\n",
              people, static_cast<double>(db_bytes) / (1 << 20));

  sim::MachineConfig mc;
  mc.epc_frames = (24ull << 20) / 4096;  // small 24 MiB EPC: the DB won't fit
  sim::Machine machine(mc);
  sim::Enclave enclave(machine, "faceverif");

  suvm::SuvmConfig sc;
  sc.epc_pp_pages = (12ull << 20) / 4096;  // 12 MiB EPC++
  size_t backing = 1;
  while (backing < 2 * db_bytes) {
    backing <<= 1;
  }
  sc.backing_bytes = backing;
  suvm::Suvm suvm(enclave, sc);
  apps::SuvmRegion region(suvm, db_bytes);

  apps::FaceVerifServer server(machine, region, people);
  std::printf("building LBP reference database...\n");
  server.BuildDatabase();

  rpc::RpcManager rpc(enclave, {.mode = rpc::RpcManager::Mode::kInline,
                                .use_cat = true});
  sim::CpuContext& cpu = machine.cpu(0);
  cpu.cos = rpc.enclave_cos();
  enclave.Enter(cpu);

  int genuine_accepted = 0;
  int impostors_rejected = 0;
  const int trials = 32;
  for (int i = 0; i < trials; ++i) {
    const uint64_t id = static_cast<uint64_t>(i) % people;

    // Exit-less network exchange, then verify a *genuine* probe (another
    // image variant of the same person).
    rpc.Call(&cpu, apps::kFaceImageDim * apps::kFaceImageDim / 16, [] {});
    const apps::Histogram genuine = apps::ComputeLbpHistogram(
        &cpu, machine.costs(), apps::SynthesizeFace(id, /*variant=*/3));
    genuine_accepted += server.Verify(&cpu, id, genuine) ? 1 : 0;

    // And an impostor probe (a different person claiming this identity).
    rpc.Call(&cpu, apps::kFaceImageDim * apps::kFaceImageDim / 16, [] {});
    const apps::Histogram impostor = apps::ComputeLbpHistogram(
        &cpu, machine.costs(), apps::SynthesizeFace(id + 7777));
    impostors_rejected += server.Verify(&cpu, id, impostor) ? 0 : 1;
  }
  enclave.Exit(cpu);

  std::printf("\ngenuine probes accepted:  %d / %d\n", genuine_accepted, trials);
  std::printf("impostor probes rejected: %d / %d\n", impostors_rejected, trials);
  std::printf("SUVM software faults: %lu   hardware EPC faults: %lu\n",
              static_cast<unsigned long>(suvm.stats().major_faults.load()),
              static_cast<unsigned long>(machine.driver().stats().faults));
  std::printf("TLB flushes on the serving thread: %lu (exit-less!)\n",
              static_cast<unsigned long>(cpu.tlb.flushes()));
  std::printf("average request cost: %.0f virtual cycles\n",
              static_cast<double>(cpu.clock.now()) / (2.0 * trials));
  return 0;
}
