// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 6c: exit-less RPC eliminates TLB flushes. The 2 MiB chained-hash
// parameter server (pointer chasing = TLB sensitive); in-enclave time per
// update, OCALL vs RPC, as keys per request grow. Paper: up to 5.5x.

#include "bench/bench_util.h"
#include "src/apps/param_server.h"

namespace eleos {
namespace {

using apps::HashLayout;
using apps::PsBackend;
using apps::PsConfig;
using apps::PsExecMode;

double HandlerCyclesPerUpdate(PsExecMode mode, size_t updates, size_t n_requests) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 2ull << 20;
  cfg.layout = HashLayout::kChaining;
  cfg.mode = mode;
  cfg.backend = PsBackend::kEnclave;
  const apps::PsRunResult r = RunPsWorkload(machine, cfg, updates, 0, n_requests);
  char label[64];
  std::snprintf(label, sizeof(label), "tlb_mode%d_upd%zu",
                static_cast<int>(mode), updates);
  bench::SnapshotMetrics(machine, label);
  return static_cast<double>(r.handler_cycles) /
         static_cast<double>(r.requests * updates);
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig06c_tlb");
  bench::PrintHeader("Figure 6c",
                     "Eliminating TLB-flush overheads with exit-less RPC "
                     "(2 MiB chained table; in-enclave time)");

  TextTable t({"keys/request", "OCALL cyc/upd", "RPC cyc/upd", "speedup"});
  for (size_t updates : {1, 2, 4, 8, 16, 32}) {
    const size_t reqs = 20000 / updates + 500;
    const double ocall = HandlerCyclesPerUpdate(PsExecMode::kSgxOcall, updates, reqs);
    const double rpc = HandlerCyclesPerUpdate(PsExecMode::kSgxRpc, updates, reqs);
    char s[32];
    snprintf(s, sizeof(s), "%.1fx", ocall / rpc);
    t.Row()
        .Cell(static_cast<uint64_t>(updates))
        .Cell(ocall, "%.0f")
        .Cell(rpc, "%.0f")
        .Cell(s);
  }
  t.Print();
  std::printf(
      "\nShape target: RPC keeps the TLB warm; the in-enclave speedup is "
      "largest for small requests where each OCALL's flush hits hardest "
      "(paper: up to 5.5x faster execution).\n");
  return bench::FlushMetricsOut();
}
