// Copyright (c) Eleos reproduction authors. MIT license.
//
// Ablations of the SUVM design choices DESIGN.md calls out:
//  1. Clean-page write-back skip (§3.2.4; paper: up to 1.7x on read-heavy
//     working sets).
//  2. spointer translation caching ("linked" spointers, §3.2.2): one page-
//     table lookup per page vs one per access.
//  3. KvCache metadata placement (§5.1/§6.2.2; paper: cleartext metadata in
//     untrusted memory is 3-7% faster).

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/kvcache.h"
#include "src/common/rng.h"
#include "src/suvm/spointer.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

// --- 1. clean-page skip ---

uint64_t ReadSweepCycles(bool clean_skip) {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = 2048;           // 8 MiB EPC++
  sc.backing_bytes = 128ull << 20;
  sc.clean_page_skip = clean_skip;
  suvm::Suvm suvm(enclave, sc);
  const size_t pages = 8192;  // 32 MiB working set
  const uint64_t a = ValueOrThrow(suvm.Malloc(pages * 4096));
  uint8_t page[4096];
  std::memset(page, 1, sizeof(page));
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Write(nullptr, a + p * 4096, page, 4096));
  }
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(suvm.Read(nullptr, a + p * 4096, page, 8));
  }
  sim::CpuContext& cpu = machine.cpu(0);
  Xoshiro256 rng(17);
  const uint64_t t0 = cpu.clock.now();
  for (size_t i = 0; i < 8000; ++i) {
    ThrowIfError(suvm.Read(&cpu, a + rng.NextBelow(pages) * 4096, page, 4096));
  }
  bench::SnapshotMetrics(machine,
                         clean_skip ? "clean_skip_on" : "clean_skip_off");
  return cpu.clock.now() - t0;
}

// --- 2. spointer linking ---

struct LinkingResult {
  uint64_t linked_cycles;
  uint64_t unlinked_cycles;
  uint64_t linked_pt_lookups;
  uint64_t unlinked_pt_lookups;
};

LinkingResult LinkingAblation() {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = 1024;
  sc.backing_bytes = 32ull << 20;
  suvm::Suvm suvm(enclave, sc);
  const size_t count = 512 * 512;  // uint32 elements: 1 MiB, resident
  auto p = suvm::SuvmAlloc<uint32_t>(suvm, count);
  for (size_t i = 0; i < count; i += 1024) {
    p.SetAt(static_cast<ptrdiff_t>(i), 1);  // pre-fault
  }
  sim::CpuContext& cpu = machine.cpu(0);
  sim::ScopedCpu bind(&cpu);

  LinkingResult r{};
  // Warm the cache lines once so neither measured pass pays cold misses.
  for (size_t i = 0; i < count; ++i) {
    (void)p.GetAt(static_cast<ptrdiff_t>(i));
  }
  const auto pt_lookups = [&suvm] {
    return suvm.stats().minor_faults.load() + suvm.stats().major_faults.load();
  };
  // Linked: sequential sweep through a spointer — one PT lookup per page.
  uint64_t lookups0 = pt_lookups();
  uint64_t t0 = cpu.clock.now();
  uint64_t sum = 0;
  for (size_t i = 0; i < count; ++i) {
    sum += p.GetAt(static_cast<ptrdiff_t>(i));
  }
  r.linked_cycles = cpu.clock.now() - t0;
  r.linked_pt_lookups = pt_lookups() - lookups0;

  // Unlinked: the same sweep through one-shot reads — a lookup per access.
  lookups0 = pt_lookups();
  t0 = cpu.clock.now();
  for (size_t i = 0; i < count; ++i) {
    uint32_t v;
    ThrowIfError(suvm.Read(&cpu, p.addr() + i * 4, &v, 4));
    sum += v;
  }
  r.unlinked_cycles = cpu.clock.now() - t0;
  r.unlinked_pt_lookups = pt_lookups() - lookups0;
  (void)sum;
  bench::SnapshotMetrics(machine, "spointer_linking");
  return r;
}

// --- 3. KvCache metadata placement ---

double KvGetCycles(bool metadata_secure) {
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = 2048;
  sc.backing_bytes = 128ull << 20;
  suvm::Suvm suvm(enclave, sc);
  apps::KvCache::Options opts;
  opts.pool_bytes = 48ull << 20;
  opts.metadata_in_secure_memory = metadata_secure;
  apps::SuvmRegion region(suvm, opts.pool_bytes);
  apps::KvCache cache(machine, region, opts);

  std::vector<char> value(1024, 'v');
  const size_t items = 30000;
  for (size_t i = 0; i < items; ++i) {
    cache.Set(nullptr, "key-" + std::to_string(i), value.data(), value.size());
  }
  sim::CpuContext& cpu = machine.cpu(0);
  Xoshiro256 rng(3);
  char out[2048];
  const uint64_t t0 = cpu.clock.now();
  const size_t gets = 8000;
  for (size_t i = 0; i < gets; ++i) {
    cache.Get(&cpu, "key-" + std::to_string(rng.NextBelow(items)), out,
              sizeof(out));
  }
  bench::SnapshotMetrics(machine,
                         metadata_secure ? "kv_meta_secure" : "kv_meta_untrusted");
  return static_cast<double>(cpu.clock.now() - t0) / static_cast<double>(gets);
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "ablation");
  bench::PrintHeader("Ablations",
                     "SUVM/Eleos design-choice ablations (DESIGN.md)");

  {
    const uint64_t with_skip = ReadSweepCycles(true);
    const uint64_t without = ReadSweepCycles(false);
    TextTable t({"clean-page write-back skip", "cycles (8k reads)", "speedup"});
    char s[32];
    snprintf(s, sizeof(s), "%.2fx",
             static_cast<double>(without) / static_cast<double>(with_skip));
    t.Row().Cell("enabled (default)").Cell(with_skip).Cell(s);
    t.Row().Cell("disabled").Cell(without).Cell("1.00x");
    t.Print();
    std::printf("Paper: up to 1.7x on read-dominated eviction streams.\n\n");
  }

  {
    const LinkingResult r = LinkingAblation();
    TextTable t({"spointer mode", "cycles (256k seq reads)", "page-table lookups"});
    t.Row().Cell("linked (translation cached)").Cell(r.linked_cycles).Cell(r.linked_pt_lookups);
    t.Row().Cell("unlinked (lookup per access)").Cell(r.unlinked_cycles).Cell(r.unlinked_pt_lookups);
    t.Print();
    std::printf(
        "Linking reduces page-table lookups from one per access to one per "
        "page (%.0fx fewer), saving %.0f%% of access time.\n\n",
        static_cast<double>(r.unlinked_pt_lookups) /
            static_cast<double>(r.linked_pt_lookups == 0 ? 1 : r.linked_pt_lookups),
        100.0 *
            (static_cast<double>(r.unlinked_cycles) -
             static_cast<double>(r.linked_cycles)) /
            static_cast<double>(r.unlinked_cycles));
  }

  {
    const double untrusted_meta = KvGetCycles(false);
    const double secure_meta = KvGetCycles(true);
    TextTable t({"KvCache metadata placement", "cycles/GET", "relative"});
    char s[32];
    snprintf(s, sizeof(s), "%+.1f%%",
             100.0 * (secure_meta - untrusted_meta) / untrusted_meta);
    t.Row().Cell("untrusted cleartext (paper's)").Cell(untrusted_meta, "%.0f").Cell("baseline");
    t.Row().Cell("all in secure memory").Cell(secure_meta, "%.0f").Cell(s);
    t.Print();
    std::printf("Paper: the untrusted-metadata split is 3-7%% faster.\n");
  }
  return bench::FlushMetricsOut();
}
