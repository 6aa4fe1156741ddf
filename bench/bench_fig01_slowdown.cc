// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 1: parameter-server slowdown of in-enclave execution over untrusted
// execution, for 2 MiB (in-LLC), 64 MiB (in-EPC), 512 MiB (out-of-EPC) data,
// without Eleos (vanilla SGX: OCALL + hardware paging) and with Eleos
// (exit-less RPC + CAT + SUVM).

#include "bench/bench_util.h"
#include "src/apps/param_server.h"

namespace eleos {
namespace {

using apps::PsBackend;
using apps::PsConfig;
using apps::PsExecMode;

double CyclesPerRequest(size_t data_bytes, PsExecMode mode, PsBackend backend,
                        size_t n_requests) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = data_bytes;
  cfg.mode = mode;
  cfg.backend = backend;
  if (backend == PsBackend::kSuvm) {
    cfg.suvm.epc_pp_pages = (60ull << 20) / 4096;
    cfg.suvm.backing_bytes = 1;  // raised automatically to fit data_bytes
  }
  const double cycles =
      RunPsWorkload(machine, cfg, /*updates=*/1, /*hot=*/0, n_requests)
          .CyclesPerRequest();
  char label[64];
  std::snprintf(label, sizeof(label), "ps_%zumib_mode%d_backend%d",
                data_bytes >> 20, static_cast<int>(mode),
                static_cast<int>(backend));
  bench::SnapshotMetrics(machine, label);
  return cycles;
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig01_slowdown");
  bench::PrintHeader("Figure 1",
                     "Parameter-server slowdown in enclave vs untrusted, with "
                     "and without Eleos (100k random single-value updates)");

  const size_t sizes[] = {2ull << 20, 64ull << 20, 512ull << 20};
  const char* paper_sgx[] = {"9x", "10-20x", "34x"};
  const char* paper_eleos[] = {"~2x", "~3x", "~6x"};

  TextTable t({"data size", "untrusted cyc/req", "SGX slowdown", "Eleos slowdown",
               "paper SGX", "paper Eleos"});
  int row = 0;
  for (size_t size : sizes) {
    // Fewer requests for the giant configuration: identical steady state.
    const size_t reqs = size > (100ull << 20) ? 4000 : 20000;
    const double native = CyclesPerRequest(size, PsExecMode::kNativeUntrusted,
                                           PsBackend::kUntrusted, reqs);
    const double sgx =
        CyclesPerRequest(size, PsExecMode::kSgxOcall, PsBackend::kEnclave, reqs);
    const double eleos =
        CyclesPerRequest(size, PsExecMode::kSgxRpcCat, PsBackend::kSuvm, reqs);
    char sgx_s[32], eleos_s[32];
    snprintf(sgx_s, sizeof(sgx_s), "%.1fx", sgx / native);
    snprintf(eleos_s, sizeof(eleos_s), "%.1fx", eleos / native);
    t.Row()
        .Cell(bench::Mib(size))
        .Cell(native, "%.0f")
        .Cell(sgx_s)
        .Cell(eleos_s)
        .Cell(paper_sgx[row])
        .Cell(paper_eleos[row]);
    ++row;
  }
  t.Print();
  std::printf(
      "\nShape targets: slowdown grows with data size; Eleos stays within a "
      "small factor of untrusted execution.\n");
  return bench::FlushMetricsOut();
}
