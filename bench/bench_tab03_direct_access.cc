// Copyright (c) Eleos reproduction authors. MIT license.
//
// Table 3: direct backing-store accesses with 1 KiB sub-page granularity vs
// normal EPC++ (4 KiB page) accesses, as a function of access size. Small
// random accesses with no reuse skip the whole-page fault; large ones pay
// per-sub-page crypto setup and lose.

#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

constexpr size_t kBufferBytes = 200ull << 20;  // ~25% EPC++ hit rate, as in §6.1.2
constexpr size_t kAccesses = 8000;

double CyclesPerAccess(size_t access_bytes, bool direct) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = (60ull << 20) / 4096;
  sc.backing_bytes = 512ull << 20;
  // The EPC++ comparator is normal whole-page SUVM; only the direct variant
  // seals at sub-page granularity (as in the paper's Table 3).
  sc.direct_mode = direct;
  suvm::Suvm suvm(enclave, sc);
  const uint64_t addr = ValueOrThrow(suvm.Malloc(kBufferBytes));
  uint8_t page[4096];
  std::memset(page, 3, sizeof(page));
  const size_t pages = kBufferBytes / 4096;
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Write(nullptr, addr + p * 4096, page, 4096));
  }
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Read(nullptr, addr + p * 4096, page, 8));
  }

  sim::CpuContext& cpu = machine.cpu(0);
  std::vector<uint8_t> buf(access_bytes);
  Xoshiro256 rng(13);
  const uint64_t t0 = cpu.clock.now();
  // Offsets aligned to the access size (>= one sub-page) so an N-byte access
  // touches ceil(N/1024) sub-pages / ceil(N/4096) pages, as in the paper.
  const uint64_t align = access_bytes < 1024 ? 1024 : access_bytes;
  for (size_t i = 0; i < kAccesses; ++i) {
    const uint64_t off = rng.NextBelow(kBufferBytes / align) * align;
    const uint64_t a = addr + (off + access_bytes > kBufferBytes ? 0 : off);
    if (direct) {
      ThrowIfError(suvm.ReadDirect(&cpu, a, buf.data(), access_bytes));
    } else {
      ThrowIfError(suvm.Read(&cpu, a, buf.data(), access_bytes));
    }
  }
  char label[64];
  std::snprintf(label, sizeof(label), "%s_b%zu", direct ? "direct" : "cache",
                access_bytes);
  bench::SnapshotMetrics(machine, label);
  return static_cast<double>(cpu.clock.now() - t0) / static_cast<double>(kAccesses);
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "tab03_direct_access");
  bench::PrintHeader("Table 3",
                     "Direct backing-store access (1 KiB sub-pages) vs EPC++ "
                     "page-cache access (4 KiB pages), random, no reuse");

  TextTable t({"bytes/access", "EPC++ cyc", "direct cyc", "direct speedup",
               "paper"});
  const char* paper[] = {"+58%", "+41%", "-3%", "-17%"};
  int row = 0;
  for (size_t bytes : {16u, 256u, 2048u, 4096u}) {
    const double via_cache = CyclesPerAccess(bytes, false);
    const double direct = CyclesPerAccess(bytes, true);
    char s[32];
    snprintf(s, sizeof(s), "%+.0f%%", 100.0 * (via_cache - direct) / via_cache);
    t.Row()
        .Cell(static_cast<uint64_t>(bytes))
        .Cell(via_cache, "%.0f")
        .Cell(direct, "%.0f")
        .Cell(s)
        .Cell(paper[row++]);
  }
  t.Print();
  std::printf(
      "\nShape target: direct access wins for short reads, roughly ties at "
      "2 KiB, and loses at 4 KiB (4x crypto setup + no page-cache hits).\n");
  return bench::FlushMetricsOut();
}
