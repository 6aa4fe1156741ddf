// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 6b: reducing LLC pollution with Cache Allocation Technology.
// The 64 MiB / 8 MiB-hot parameter server over exit-less RPC, with and
// without partitioning the LLC 75% enclave / 25% RPC worker. In-enclave
// time; CAT saves up to ~25%, more for larger I/O buffers.

#include "bench/bench_util.h"
#include "src/apps/param_server.h"

namespace eleos {
namespace {

using apps::PsBackend;
using apps::PsConfig;
using apps::PsExecMode;

double HandlerCyclesPerUpdate(PsExecMode mode, size_t updates, size_t n_requests) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 64ull << 20;
  cfg.mode = mode;
  cfg.backend = PsBackend::kEnclave;
  cfg.cluster_hot_keys = true;
  const size_t hot_keys = (2ull << 20) / 16;
  const apps::PsRunResult r =
      RunPsWorkload(machine, cfg, updates, hot_keys, n_requests);
  char label[64];
  std::snprintf(label, sizeof(label), "cat_mode%d_upd%zu",
                static_cast<int>(mode), updates);
  bench::SnapshotMetrics(machine, label);
  return static_cast<double>(r.handler_cycles) /
         static_cast<double>(r.requests * updates);
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig06b_cat");
  bench::PrintHeader("Figure 6b",
                     "LLC pollution with exit-less RPC, with and without CAT "
                     "(64 MiB server, 2 MiB hot set; in-enclave time)");

  TextTable t({"keys/request", "RPC cyc/upd", "RPC+CAT cyc/upd", "CAT saving"});
  for (size_t updates : {1, 2, 4, 8, 16, 32}) {
    // Enough accesses to revisit each hot entry several times
    // (otherwise compulsory misses swamp the pollution signal).
    const size_t reqs = 1000000 / updates + 2000;
    const double plain = HandlerCyclesPerUpdate(PsExecMode::kSgxRpc, updates, reqs);
    const double cat = HandlerCyclesPerUpdate(PsExecMode::kSgxRpcCat, updates, reqs);
    char s[32];
    snprintf(s, sizeof(s), "%.1f%%", 100.0 * (plain - cat) / plain);
    t.Row()
        .Cell(static_cast<uint64_t>(updates))
        .Cell(plain, "%.0f")
        .Cell(cat, "%.0f")
        .Cell(s);
  }
  t.Print();
  std::printf(
      "\nShape target: partitioning saves in-enclave time (paper: over 25%%, "
      "growing with I/O buffer size).\n");
  return bench::FlushMetricsOut();
}
