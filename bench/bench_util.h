// Copyright (c) Eleos reproduction authors. MIT license.
//
// Shared helpers for the paper-reproduction bench binaries. Every bench
// prints the table/figure it regenerates via TextTable, using virtual cycles
// from the simulation (wall-clock on this container is meaningless for the
// paper's claims).

#ifndef ELEOS_BENCH_BENCH_UTIL_H_
#define ELEOS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "src/common/table.h"
#include "src/sim/machine.h"

namespace eleos::bench {

inline void PrintHeader(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("%s\n", description);
  std::printf("==============================================================\n");
}

inline std::string Mib(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu MiB", bytes >> 20);
  return buf;
}

inline double KopsPerSec(const sim::CostModel& costs, uint64_t ops,
                         uint64_t cycles) {
  return costs.OpsPerSecond(ops, cycles) / 1000.0;
}

// --- --metrics-out: Registry snapshot export for the figure/table benches ---
//
// The paper-figure binaries print human tables; --metrics-out additionally
// captures each workload machine's full metric registry so a figure run
// leaves diagnosable context (counters, histograms, trace tail) next to its
// numbers. Protocol: call InitMetricsOut(argc, argv, "fig06a_rpc") first in
// main (recognizes `--metrics-out <path>` and `--metrics-out=<path>`; other
// args are ignored), SnapshotMetrics(machine, "label") after each machine's
// workload quiesced, and `return FlushMetricsOut();` — which writes
//   {"schema_version":1,"kind":"bench_metrics","bench":...,
//    "snapshots":[{"label":...,"metrics":<Registry::ToJson>}, ...]}
// to the path, or does nothing (exit 0) when the flag was absent.

inline std::string g_metrics_out_path;    // empty => disabled
inline std::string g_metrics_out_bench;
inline std::string g_metrics_out_body;
inline size_t g_metrics_out_count = 0;

inline void InitMetricsOut(int argc, char** argv, const char* bench) {
  g_metrics_out_bench = bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      g_metrics_out_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      g_metrics_out_path = argv[i] + 14;
    }
  }
}

inline void SnapshotMetrics(sim::Machine& machine, const std::string& label) {
  if (g_metrics_out_path.empty()) {
    return;
  }
  // Flush any open timeline window so the snapshot is complete (a no-op
  // when the sampler is off).
  machine.CutTimeline();
  if (g_metrics_out_count++ != 0) {
    g_metrics_out_body += ",\n";
  }
  // `seq` orders the snapshots; labels identify the workload and need not be
  // unique (sweep helpers snapshot once per machine).
  g_metrics_out_body += "    {\"seq\": " +
                        std::to_string(g_metrics_out_count - 1) +
                        ", \"label\": \"" + label +
                        "\", \"metrics\": " + machine.metrics().ToJson() + "}";
}

// Returns main()'s exit code: 0 when disabled or written, 1 on I/O failure.
inline int FlushMetricsOut() {
  if (g_metrics_out_path.empty()) {
    return 0;
  }
  std::string out = "{\n  \"schema_version\": 1,\n";
  out += "  " + JsonKv("kind", std::string("bench_metrics")) + ",\n";
  out += "  " + JsonKv("bench", g_metrics_out_bench) + ",\n";
  out += "  \"snapshots\": [\n" + g_metrics_out_body + "\n  ]\n}\n";
  if (!WriteFile(g_metrics_out_path, out)) {
    std::fprintf(stderr, "failed to write %s\n", g_metrics_out_path.c_str());
    return 1;
  }
  std::printf("metrics snapshot (%zu machine%s) written to %s\n",
              g_metrics_out_count, g_metrics_out_count == 1 ? "" : "s",
              g_metrics_out_path.c_str());
  return 0;
}

}  // namespace eleos::bench

#endif  // ELEOS_BENCH_BENCH_UTIL_H_
