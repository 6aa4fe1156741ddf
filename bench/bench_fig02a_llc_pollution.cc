// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 2a: indirect cost of syscall-induced LLC pollution. A 64 MiB
// parameter server serves only 8 MiB of "hot" keys (fits the LLC); as the
// request size (and hence the I/O buffer footprint of each OCALL) grows,
// in-enclave execution slows because syscall buffers evict the hot set.

#include "bench/bench_util.h"
#include "src/apps/param_server.h"

namespace eleos {
namespace {

using apps::PsBackend;
using apps::PsConfig;
using apps::PsExecMode;

// Handler (in-enclave) cycles per update, so the exit costs themselves are
// excluded — this isolates the *indirect* pollution cost, like the paper.
double HandlerCyclesPerUpdate(PsExecMode mode, PsBackend backend, size_t updates,
                              size_t n_requests) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 64ull << 20;
  cfg.mode = mode;
  cfg.backend = backend;
  cfg.cluster_hot_keys = true;
  const size_t hot_keys = (2ull << 20) / 16;  // 2 MiB of hot entries
  const apps::PsRunResult r =
      RunPsWorkload(machine, cfg, updates, hot_keys, n_requests);
  char label[64];
  std::snprintf(label, sizeof(label), "pollution_mode%d_upd%zu",
                static_cast<int>(mode), updates);
  bench::SnapshotMetrics(machine, label);
  return static_cast<double>(r.handler_cycles) /
         static_cast<double>(r.requests * updates);
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig02a_llc_pollution");
  bench::PrintHeader(
      "Figure 2a",
      "LLC pollution cost of OCALL I/O for 'hot' requests on a 64 MiB "
      "parameter server (in-enclave time, normalized per update)");

  TextTable t({"keys/request", "untrusted cyc/upd", "enclave cyc/upd",
               "slowdown", "paper"});
  const char* paper[] = {"~1.2x", "~1.4x", "~1.6x", "~1.9x", "~2.1x", "~2.2x"};
  int row = 0;
  for (size_t updates : {1, 2, 4, 8, 16, 32}) {
    // Enough accesses to revisit each hot entry several times
    // (otherwise compulsory misses swamp the pollution signal).
    const size_t reqs = 1000000 / updates + 2000;
    const double untrusted = HandlerCyclesPerUpdate(
        PsExecMode::kNativeUntrusted, PsBackend::kUntrusted, updates, reqs);
    const double enclave = HandlerCyclesPerUpdate(PsExecMode::kSgxOcall,
                                                  PsBackend::kEnclave, updates, reqs);
    char s[32];
    snprintf(s, sizeof(s), "%.2fx", enclave / untrusted);
    t.Row()
        .Cell(static_cast<uint64_t>(updates))
        .Cell(untrusted, "%.0f")
        .Cell(enclave, "%.0f")
        .Cell(s)
        .Cell(paper[row++]);
  }
  t.Print();
  std::printf("\nShape target: slowdown grows with request size, up to ~2.2x.\n");
  return bench::FlushMetricsOut();
}
