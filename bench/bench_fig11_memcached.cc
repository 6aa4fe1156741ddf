// Copyright (c) Eleos reproduction authors. MIT license.
//
// Figure 11 + Table 4: KvCache (the memcached analogue) throughput.
// 500 MiB of data (4.5x PRM), 20-byte keys, 1 KiB / 4 KiB values, memaslap-
// style GET workload over all items. Configurations: native (no SGX),
// Graphene-style baseline (enclave + OCALL), Eleos RPC, Eleos RPC + SUVM,
// Eleos RPC + SUVM with direct sub-page access, and the page-fault-free
// upper bound (20 MiB dataset).
//
// Every cell builds a fresh server, warms it with charged GETs until its
// paging cache (EPC++ for SUVM, the EPC for hardware paging) has turned over
// twice, aligns the server threads' clocks and measures 10k GETs, each handed
// to the thread with the lowest virtual clock. A second table splits the
// SUVM configurations' per-request cycles by layer, which is what explains
// their thread scaling.

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/kvcache.h"
#include "src/rpc/rpc_manager.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

enum class Config {
  kNative,       // untrusted memory, plain syscalls
  kBaseline,     // enclave memory + OCALL (Graphene-SGX role)
  kEleosRpc,     // enclave memory + exit-less RPC
  kEleosSuvm,    // SUVM + RPC
  kEleosDirect,  // SUVM with 1 KiB direct access + RPC
  kNoFaultBound, // baseline with a 20 MiB dataset (fits EPC)
};

constexpr size_t kKeyLen = 20;
constexpr size_t kRequests = 10000;

std::string KeyFor(size_t i) {
  char buf[kKeyLen + 1];
  snprintf(buf, sizeof(buf), "key-%016zu", i);
  return std::string(buf, kKeyLen);
}

struct Server {
  sim::Machine machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<suvm::Suvm> suvm;
  std::unique_ptr<apps::MemRegion> region;
  std::unique_ptr<apps::KvCache> cache;
  std::unique_ptr<rpc::RpcManager> rpc;
  size_t items = 0;
  size_t value_len;

  Server(Config config, size_t value_bytes)
      : machine(bench::FastMachine()), value_len(value_bytes) {
    const size_t data_bytes =
        config == Config::kNoFaultBound ? (20ull << 20) : (500ull << 20);
    const size_t pool = data_bytes + (64ull << 20);  // slab slack
    apps::KvCache::Options opts;
    opts.pool_bytes = pool;
    opts.hash_buckets = 1 << 19;

    switch (config) {
      case Config::kNative:
        region = std::make_unique<apps::UntrustedRegion>(machine, pool);
        break;
      case Config::kBaseline:
      case Config::kEleosRpc:
      case Config::kNoFaultBound:
        enclave = std::make_unique<sim::Enclave>(machine, "kvcache");
        region = std::make_unique<apps::EnclaveRegion>(*enclave, pool);
        break;
      case Config::kEleosSuvm:
      case Config::kEleosDirect: {
        enclave = std::make_unique<sim::Enclave>(machine, "kvcache");
        suvm::SuvmConfig sc;
        sc.epc_pp_pages = (60ull << 20) / 4096;
        size_t backing = 1;
        while (backing < pool + (1ull << 20)) {
          backing <<= 1;
        }
        sc.backing_bytes = backing;
        sc.fast_seal = true;
        sc.direct_mode = config == Config::kEleosDirect;
        suvm = std::make_unique<suvm::Suvm>(*enclave, sc);
        region = std::make_unique<apps::SuvmRegion>(
            *suvm, pool, /*direct_access=*/config == Config::kEleosDirect);
        break;
      }
    }
    if (config == Config::kEleosRpc || config == Config::kEleosSuvm ||
        config == Config::kEleosDirect) {
      rpc = std::make_unique<rpc::RpcManager>(
          *enclave, rpc::RpcManager::Options{.mode = rpc::RpcManager::Mode::kInline,
                                             .use_cat = true});
    }
    cache = std::make_unique<apps::KvCache>(machine, *region, opts);

    // memaslap fill phase (unmeasured): insert items until `data_bytes` of
    // key+value payload are stored.
    std::vector<char> value(value_bytes, 'v');
    const size_t target_items = data_bytes / (value_bytes + kKeyLen + 8);
    for (size_t i = 0; i < target_items; ++i) {
      value[0] = static_cast<char>('a' + i % 26);
      if (!cache->Set(nullptr, KeyFor(i), value.data(), value.size())) {
        break;
      }
      ++items;
    }
  }

  ~Server() {
    cache.reset();
    region.reset();
    rpc.reset();
    suvm.reset();
  }
};

// Per-layer account of one measured GET window: what each request cost,
// summed over every server thread, split by cost category.
struct Result {
  double kops = 0.0;
  double cycles_per_req = 0.0;  // all CPUs' clock deltas / requests
  double majors_per_req = 0.0;
  double gate_wait_per_req = 0.0;
  double cat_per_req[telemetry::kNumCostCategories] = {};
};

// One request: receive (OCALL / exit-less RPC / plain syscall), AES-CTR on
// the request key and response value, then the cache lookup itself.
bool ServeGet(Server& s, Config config, sim::CpuContext& cpu,
              const std::string& key, std::vector<char>& out) {
  const sim::CostModel& costs = s.machine.costs();
  const size_t io = 64 + s.value_len;  // request in, value out
  switch (config) {
    case Config::kNative:
      cpu.Charge(costs.syscall_cycles);
      s.machine.TouchScratch(&cpu, io + costs.syscall_kernel_footprint);
      break;
    case Config::kBaseline:
    case Config::kNoFaultBound:
      s.enclave->Ocall(cpu, io, [] {});
      break;
    default:
      s.rpc->Call(&cpu, io, [] {});
      break;
  }
  if (s.enclave != nullptr) {
    s.enclave->ChargeCtr(&cpu, io);
  } else {
    cpu.Charge(static_cast<uint64_t>(costs.aes_ctr_cycles_per_byte *
                                     static_cast<double>(io)));
  }
  return s.cache->Get(&cpu, key, out.data(), out.size()) > 0;
}

// The next request goes to the server thread with the lowest virtual clock,
// as concurrent threads would take it.
sim::CpuContext& NextCpu(sim::Machine& machine, size_t threads) {
  size_t best = 0;
  for (size_t t = 1; t < threads; ++t) {
    if (machine.cpu(t).clock.now() < machine.cpu(best).clock.now()) {
      best = t;
    }
  }
  return machine.cpu(best);
}

uint64_t CategoryCycles(sim::Machine& machine, size_t c) {
  return machine.metrics()
      .GetCounter(std::string("sim.cycles.") +
                  telemetry::CostCategoryName(
                      static_cast<telemetry::CostCategory>(c)))
      ->value();
}

// Pages the dataset turned over so far: SUVM major faults for EPC++, driver
// page-ins for hardware EPC paging.
uint64_t PageIns(Server& s) {
  return s.suvm != nullptr ? s.suvm->stats().major_faults.load()
                           : s.machine.driver().stats().page_ins;
}

// GET-only phase on a freshly filled server; returns its per-layer account.
Result RunGets(Config config, size_t value_len, size_t threads) {
  Server s(config, value_len);
  sim::Machine& machine = s.machine;
  for (size_t t = 0; t < threads; ++t) {
    sim::CpuContext& cpu = machine.cpu(t);
    if (s.enclave != nullptr) {
      s.enclave->Enter(cpu);
      if (s.rpc != nullptr) {
        cpu.cos = s.rpc->enclave_cos();
      }
    }
  }
  Xoshiro256 rng(71 + threads * 1000 + static_cast<uint64_t>(config) * 17);
  std::vector<char> out(s.value_len + 64);

  // Charged warm-up until the paging cache that backs the dataset has turned
  // over twice, so the window measures steady state rather than the pages
  // the fill left behind. Where nothing turns over (native memory, a dataset
  // that fits the EPC, direct access that reads the backing store in place)
  // a fixed warm-up stands in.
  const bool turns_over = config == Config::kBaseline ||
                          config == Config::kEleosRpc ||
                          config == Config::kEleosSuvm;
  const uint64_t turnover =
      2 * (s.suvm != nullptr ? s.suvm->config().epc_pp_pages
                             : machine.epc().total_frames());
  const uint64_t pageins0 = PageIns(s);
  for (uint64_t i = 0;
       turns_over ? PageIns(s) - pageins0 < turnover : i < 2000; ++i) {
    if (i >= 100 * turnover) {
      std::fprintf(stderr, "warm-up saw no paging turnover\n");
      std::exit(1);
    }
    ServeGet(s, config, NextCpu(machine, threads),
             KeyFor(rng.NextBelow(s.items)), out);
  }

  // Every thread starts the window at one instant; no clock is reset.
  const uint64_t aligned = machine.MaxClock();
  for (size_t t = 0; t < threads; ++t) {
    machine.cpu(t).Charge(aligned - machine.cpu(t).clock.now());
  }
  uint64_t cat0[telemetry::kNumCostCategories];
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    cat0[c] = CategoryCycles(machine, c);
  }
  const uint64_t majors0 =
      s.suvm != nullptr ? s.suvm->stats().major_faults.load() : 0;
  const uint64_t wait0 =
      s.suvm != nullptr ? s.suvm->stats().gate_wait_cycles.load() : 0;

  size_t hits = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    hits += ServeGet(s, config, NextCpu(machine, threads),
                     KeyFor(rng.NextBelow(s.items)), out)
                ? 1
                : 0;
  }
  if (hits != kRequests) {
    std::fprintf(stderr, "warning: %zu misses\n", kRequests - hits);
  }

  Result r;
  const double n = static_cast<double>(kRequests);
  uint64_t busy = 0;
  for (size_t t = 0; t < threads; ++t) {
    busy += machine.cpu(t).clock.now() - aligned;
  }
  r.kops = bench::KopsPerSec(machine.costs(), kRequests,
                             machine.MaxClock() - aligned);
  r.cycles_per_req = static_cast<double>(busy) / n;
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    r.cat_per_req[c] =
        static_cast<double>(CategoryCycles(machine, c) - cat0[c]) / n;
  }
  if (s.suvm != nullptr) {
    r.majors_per_req =
        static_cast<double>(s.suvm->stats().major_faults.load() - majors0) / n;
    r.gate_wait_per_req =
        static_cast<double>(s.suvm->stats().gate_wait_cycles.load() - wait0) /
        n;
  }
  for (size_t t = 0; t < threads; ++t) {
    if (s.enclave != nullptr) {
      s.enclave->Exit(machine.cpu(t));
    }
  }
  char label[64];
  std::snprintf(label, sizeof(label), "kv_cfg%d_v%zu_t%zu",
                static_cast<int>(config), s.value_len, threads);
  bench::SnapshotMetrics(machine, label);
  return r;
}

}  // namespace
}  // namespace eleos

int main(int argc, char** argv) {
  using namespace eleos;
  bench::InitMetricsOut(argc, argv, "fig11_memcached");
  bench::PrintHeader("Figure 11 + Table 4",
                     "KvCache (memcached) GET throughput, 500 MiB data "
                     "(4.5x PRM), 20 B keys. Kops/s; 'norm' is normalized to "
                     "the Graphene-style baseline (Fig 11)");

  // Every cell runs on its own freshly filled server: a server reused across
  // thread counts would carry one run's EPC residency into the next.
  constexpr Config kConfigs[] = {Config::kNative,    Config::kBaseline,
                                 Config::kEleosRpc,  Config::kEleosSuvm,
                                 Config::kEleosDirect, Config::kNoFaultBound};
  constexpr size_t kThreads[] = {1, 4};
  for (size_t value_len : {1024u, 4096u}) {
    std::printf("\n--- value size %zu B ---\n", value_len);
    Result res[std::size(kThreads)][std::size(kConfigs)];
    TextTable t({"threads", "native", "baseline(Graphene)", "+RPC", "+RPC+SUVM",
                 "+RPC+SUVM direct", "no-fault bound", "SUVM norm",
                 "direct norm"});
    for (size_t ti = 0; ti < std::size(kThreads); ++ti) {
      for (size_t ci = 0; ci < std::size(kConfigs); ++ci) {
        res[ti][ci] = RunGets(kConfigs[ci], value_len, kThreads[ti]);
      }
      const Result* r = res[ti];
      char sn[32], dn[32];
      snprintf(sn, sizeof(sn), "%.2fx", r[3].kops / r[1].kops);
      snprintf(dn, sizeof(dn), "%.2fx", r[4].kops / r[1].kops);
      t.Row()
          .Cell(static_cast<uint64_t>(kThreads[ti]))
          .Cell(r[0].kops, "%.1f")
          .Cell(r[1].kops, "%.1f")
          .Cell(r[2].kops, "%.1f")
          .Cell(r[3].kops, "%.1f")
          .Cell(r[4].kops, "%.1f")
          .Cell(r[5].kops, "%.1f")
          .Cell(sn)
          .Cell(dn);
    }
    t.Print();

    // Where the SUVM configurations' thread scaling comes from: per-request
    // cycles summed over all server threads, split by layer. Equal totals at
    // 1 and 4 threads mean linear scaling; the paging gate's queueing shows
    // up as gate wait (inside suvm_paging).
    std::printf(
        "\nper-layer cycles per request (all threads), SUVM configs:\n");
    TextTable l({"config", "threads", "Kops/s", "scaling", "cycles/req",
                 "major/req", "gate wait", "suvm_paging", "crypto", "cache",
                 "rpc", "transitions", "sgx_paging"});
    for (size_t ci : {size_t{3}, size_t{4}}) {
      for (size_t ti = 0; ti < std::size(kThreads); ++ti) {
        const Result& r = res[ti][ci];
        auto cat = [&](telemetry::CostCategory c) {
          return r.cat_per_req[static_cast<size_t>(c)];
        };
        char scale[32];
        snprintf(scale, sizeof(scale), "%.2fx", r.kops / res[0][ci].kops);
        l.Row()
            .Cell(ci == 3 ? "+RPC+SUVM" : "+RPC+SUVM direct")
            .Cell(static_cast<uint64_t>(kThreads[ti]))
            .Cell(r.kops, "%.1f")
            .Cell(scale)
            .Cell(r.cycles_per_req, "%.0f")
            .Cell(r.majors_per_req, "%.3f")
            .Cell(r.gate_wait_per_req, "%.0f")
            .Cell(cat(telemetry::CostCategory::kSuvmPaging), "%.0f")
            .Cell(cat(telemetry::CostCategory::kCrypto), "%.0f")
            .Cell(cat(telemetry::CostCategory::kCache), "%.0f")
            .Cell(cat(telemetry::CostCategory::kRpc), "%.0f")
            .Cell(cat(telemetry::CostCategory::kTransitions), "%.0f")
            .Cell(cat(telemetry::CostCategory::kSgxPaging), "%.0f");
      }
    }
    l.Print();
  }
  std::printf(
      "\nShape targets (paper): Eleos up to ~2.2x over the baseline; SUVM "
      "within ~15-17%% of the no-fault bound; direct access beats EPC++ for "
      "1 KiB values and loses for 4 KiB; native ~3-5x above Eleos.\n");
  return bench::FlushMetricsOut();
}
