// Copyright (c) Eleos reproduction authors. MIT license.
//
// The paper's motivating workload (§2) as a runnable example: a parameter
// server for distributed machine learning, storing model weights in a hash
// table and applying encrypted client updates in place.
//
// Runs the same server under four execution modes and reports the cost per
// request, demonstrating exactly the slowdowns Figure 1 is about — and how
// Eleos removes them.
//
// Run:  ./build/examples/parameter_server [data_mib]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/apps/param_server.h"
#include "src/common/table.h"

int main(int argc, char** argv) {
  using namespace eleos;
  using apps::PsBackend;
  using apps::PsConfig;
  using apps::PsExecMode;

  const size_t data_mib = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 16;
  const size_t n_requests = 5000;
  std::printf("== Parameter server: %zu MiB of weights, %zu encrypted requests ==\n\n",
              data_mib, n_requests);

  struct ModeSpec {
    const char* name;
    PsExecMode mode;
    PsBackend backend;
  };
  const ModeSpec modes[] = {
      {"native (no SGX)", PsExecMode::kNativeUntrusted, PsBackend::kUntrusted},
      {"vanilla SGX (OCALL + EPC paging)", PsExecMode::kSgxOcall,
       PsBackend::kEnclave},
      {"Eleos RPC (exit-less syscalls)", PsExecMode::kSgxRpc, PsBackend::kEnclave},
      {"Eleos RPC + CAT + SUVM", PsExecMode::kSgxRpcCat, PsBackend::kSuvm},
  };

  TextTable table({"configuration", "cycles/request", "slowdown vs native"});
  double native_cycles = 0.0;
  for (const ModeSpec& spec : modes) {
    sim::Machine machine;
    PsConfig cfg;
    cfg.data_bytes = data_mib << 20;
    cfg.mode = spec.mode;
    cfg.backend = spec.backend;
    if (spec.backend == PsBackend::kSuvm) {
      cfg.suvm.epc_pp_pages = (60ull << 20) / 4096;
    }
    const apps::PsRunResult r =
        apps::RunPsWorkload(machine, cfg, /*updates=*/4, /*hot=*/0, n_requests);
    const double per_req = r.CyclesPerRequest();
    if (native_cycles == 0.0) {
      native_cycles = per_req;
    }
    char slowdown[32];
    snprintf(slowdown, sizeof(slowdown), "%.1fx", per_req / native_cycles);
    table.Row().Cell(spec.name).Cell(per_req, "%.0f").Cell(slowdown);
  }
  table.Print();

  std::printf(
      "\nWhat to look for: the OCALL configuration pays ~8,000 cycles of exit "
      "costs per request plus TLB/LLC damage; Eleos's exit-less RPC removes "
      "the exits and SUVM removes the hardware paging (try 512 MiB data to "
      "see the out-of-EPC effect).\n");
  return 0;
}
