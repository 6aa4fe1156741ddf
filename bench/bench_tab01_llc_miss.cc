// Copyright (c) Eleos reproduction authors. MIT license.
//
// Table 1: relative cost of LLC misses when accessing EPC vs untrusted
// memory, for sequential and random READ / WRITE / READ+WRITE patterns.

#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"

namespace eleos {
namespace {

enum class Pattern { kSequential, kRandom };
enum class Op { kRead, kWrite, kReadWrite };

// Average cycles per cache-line access for a working set far exceeding the
// LLC, so that essentially every access misses. Goes straight to the LLC
// model (the table isolates *LLC miss* cost; the paper's measurement uses
// huge working sets where TLB effects cancel between the two memories).
double MissCost(Pattern pattern, Op op, sim::MemKind kind) {
  sim::Machine m;
  sim::CacheModel& llc = m.llc();
  const size_t lines = (64ull << 20) / 64;  // 64 MiB working set
  const size_t accesses = 200000;
  Xoshiro256 rng(17);
  const uint64_t base = 0x4000000000ull / 64;

  uint64_t cycles = 0;
  for (size_t i = 0; i < accesses; ++i) {
    const uint64_t line =
        base + (pattern == Pattern::kSequential ? i % lines : rng.NextBelow(lines));
    switch (op) {
      case Op::kRead:
        cycles += llc.Access(line, false, kind, sim::kCosShared);
        break;
      case Op::kWrite:
        cycles += llc.Access(line, true, kind, sim::kCosShared);
        break;
      case Op::kReadWrite:
        cycles += llc.Access(line, (i & 1) != 0, kind, sim::kCosShared);
        break;
    }
  }
  char label[64];
  std::snprintf(label, sizeof(label), "llc_p%d_op%d_kind%d",
                static_cast<int>(pattern), static_cast<int>(op),
                static_cast<int>(kind));
  bench::SnapshotMetrics(m, label);
  return static_cast<double>(cycles) / static_cast<double>(accesses);
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "tab01_llc_miss");
  bench::PrintHeader("Table 1",
                     "Relative cost of LLC misses: EPC vs untrusted memory");

  TextTable t({"operation", "sequential (EPC/untrusted)", "random (EPC/untrusted)",
               "paper seq", "paper rand"});
  struct RowSpec {
    const char* name;
    Op op;
    const char* paper_seq;
    const char* paper_rand;
  };
  const RowSpec rows[] = {
      {"READ", Op::kRead, "5.6x", "5.6x"},
      {"WRITE", Op::kWrite, "6.8x", "8.9x"},
      {"READ and WRITE", Op::kReadWrite, "7.4x", "9.5x"},
  };
  for (const auto& r : rows) {
    const double seq_epc = MissCost(Pattern::kSequential, r.op, sim::MemKind::kEpc);
    const double seq_un =
        MissCost(Pattern::kSequential, r.op, sim::MemKind::kUntrusted);
    const double rnd_epc = MissCost(Pattern::kRandom, r.op, sim::MemKind::kEpc);
    const double rnd_un = MissCost(Pattern::kRandom, r.op, sim::MemKind::kUntrusted);
    char seq[32], rnd[32];
    snprintf(seq, sizeof(seq), "%.1fx", seq_epc / seq_un);
    snprintf(rnd, sizeof(rnd), "%.1fx", rnd_epc / rnd_un);
    t.Row().Cell(r.name).Cell(seq).Cell(rnd).Cell(r.paper_seq).Cell(r.paper_rand);
  }
  t.Print();
  return bench::FlushMetricsOut();
}
