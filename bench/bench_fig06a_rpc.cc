// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 6a: eliminating the direct EENTER/EEXIT costs with exit-less RPC.
// End-to-end slowdown over untrusted execution, for the 2 MiB parameter
// server, as updates per request grow from 1 to 64. RPC wins ~6x at small
// requests; OCALL catches up once exits amortize.

#include "bench/bench_util.h"
#include "src/apps/param_server.h"

namespace eleos {
namespace {

using apps::PsBackend;
using apps::PsConfig;
using apps::PsExecMode;

double CyclesPerRequest(PsExecMode mode, PsBackend backend, size_t updates,
                        size_t n_requests) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 2ull << 20;
  cfg.mode = mode;
  cfg.backend = backend;
  const double cycles =
      RunPsWorkload(machine, cfg, updates, 0, n_requests).CyclesPerRequest();
  char label[64];
  std::snprintf(label, sizeof(label), "rpc_mode%d_upd%zu",
                static_cast<int>(mode), updates);
  bench::SnapshotMetrics(machine, label);
  return cycles;
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig06a_rpc");
  bench::PrintHeader("Figure 6a",
                     "End-to-end slowdown over untrusted execution: OCALL vs "
                     "exit-less RPC (2 MiB server)");

  TextTable t({"updates/request", "OCALL slowdown", "RPC slowdown",
               "OCALL/RPC", "paper OCALL/RPC"});
  const char* paper[] = {"~6x", "~4x", "~3x", "~2x", "~1.5x", "~1.2x", "~1x"};
  int row = 0;
  for (size_t updates : {1, 2, 4, 8, 16, 32, 64}) {
    const size_t reqs = 20000 / updates + 500;
    const double native = CyclesPerRequest(PsExecMode::kNativeUntrusted,
                                           PsBackend::kUntrusted, updates, reqs);
    const double ocall =
        CyclesPerRequest(PsExecMode::kSgxOcall, PsBackend::kEnclave, updates, reqs);
    const double rpc =
        CyclesPerRequest(PsExecMode::kSgxRpc, PsBackend::kEnclave, updates, reqs);
    char so[32], sr[32], rel[32];
    snprintf(so, sizeof(so), "%.1fx", ocall / native);
    snprintf(sr, sizeof(sr), "%.1fx", rpc / native);
    snprintf(rel, sizeof(rel), "%.1fx", ocall / rpc);
    t.Row()
        .Cell(static_cast<uint64_t>(updates))
        .Cell(so)
        .Cell(sr)
        .Cell(rel)
        .Cell(paper[row++]);
  }
  t.Print();
  std::printf(
      "\nShape target: ~6x advantage for RPC at 1 update/request, converging "
      "to parity at 64.\n");
  return bench::FlushMetricsOut();
}
