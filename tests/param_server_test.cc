// Copyright (c) Eleos reproduction authors. MIT license.
//
// Parameter server: hash tables over every backend, request decode paths,
// and the cost relationships the motivation section (§2) is built on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/param_server.h"
#include "src/crypto/sha256.h"

namespace eleos::apps {
namespace {

class HashTableBackends
    : public ::testing::TestWithParam<std::tuple<HashLayout, PsBackend>> {};

TEST_P(HashTableBackends, InsertUpdateGetRoundTrip) {
  const auto [layout, backend] = GetParam();
  sim::Machine machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<suvm::Suvm> suvm;
  std::unique_ptr<MemRegion> region;
  const size_t bytes = 1 << 20;
  switch (backend) {
    case PsBackend::kUntrusted:
      region = std::make_unique<UntrustedRegion>(machine, bytes);
      break;
    case PsBackend::kEnclave:
      enclave = std::make_unique<sim::Enclave>(machine);
      region = std::make_unique<EnclaveRegion>(*enclave, bytes);
      break;
    case PsBackend::kSuvm: {
      enclave = std::make_unique<sim::Enclave>(machine);
      suvm::SuvmConfig cfg;
      cfg.epc_pp_pages = 64;
      cfg.backing_bytes = 4 << 20;
      suvm = std::make_unique<suvm::Suvm>(*enclave, cfg);
      region = std::make_unique<SuvmRegion>(*suvm, bytes);
      break;
    }
  }

  const size_t buckets = 4096;
  PsHashTable table(*region, layout, buckets, buckets / 2);
  const size_t n = buckets / 2;
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(table.Insert(nullptr, k, k * 10)) << k;
  }
  for (uint64_t k = 0; k < n; k += 7) {
    ASSERT_TRUE(table.Update(nullptr, k, 5));
  }
  for (uint64_t k = 0; k < n; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(table.Get(nullptr, k, &v)) << k;
    EXPECT_EQ(v, k * 10 + (k % 7 == 0 ? 5u : 0u));
  }
  uint64_t v;
  EXPECT_FALSE(table.Get(nullptr, n + 100, &v));
  EXPECT_FALSE(table.Update(nullptr, n + 100, 1));
  // Region cleanup order: region before suvm.
  region.reset();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, HashTableBackends,
    ::testing::Combine(::testing::Values(HashLayout::kOpenAddressing,
                                         HashLayout::kChaining),
                       ::testing::Values(PsBackend::kUntrusted,
                                         PsBackend::kEnclave,
                                         PsBackend::kSuvm)));

TEST(PsLoadGenerator, RequestsDecryptCorrectly) {
  PsLoadGenerator gen(1000, 0, 4, 7, 99);
  std::vector<uint8_t> wire(gen.request_bytes());
  gen.MakeRequest(3, wire.data());

  crypto::Aes128 aes(crypto::DeriveAesKey("ps-session", 99).data());
  uint32_t n = 0;
  std::memcpy(&n, wire.data() + 12, 4);
  ASSERT_EQ(n, 4u);
  std::vector<uint64_t> payload(2 * n);
  crypto::AesCtrCrypt(aes, wire.data(), 1, wire.data() + 16,
                      reinterpret_cast<uint8_t*>(payload.data()), 16 * n);
  for (uint32_t u = 0; u < n; ++u) {
    EXPECT_LT(payload[2 * u], 1000u) << "key in range";
    EXPECT_LT(payload[2 * u + 1], 1000u) << "delta in range";
  }
  // Deterministic regeneration.
  std::vector<uint8_t> wire2(gen.request_bytes());
  gen.MakeRequest(3, wire2.data());
  EXPECT_EQ(wire, wire2);
}

TEST(ParamServer, AppliesUpdatesEndToEnd) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 1 << 20;
  cfg.mode = PsExecMode::kNativeUntrusted;
  PsConfig probe_cfg = cfg;
  ParamServer server(machine, probe_cfg);
  server.Populate();

  PsLoadGenerator gen(server.num_keys(), 0, 8, 21, probe_cfg.crypto_seed);
  std::vector<uint8_t> wire(gen.request_bytes());
  sim::CpuContext& cpu = machine.cpu(0);
  for (int i = 0; i < 50; ++i) {
    gen.MakeRequest(static_cast<uint64_t>(i), wire.data());
    server.HandleRequest(&cpu, wire.data(), wire.size());
  }
  EXPECT_EQ(server.requests_served(), 50u);
  EXPECT_GT(server.handler_cycles(), 0u);
}

TEST(ParamServer, EnclaveModesAreSlowerThanNative) {
  // The §2 motivation: OCALL-mode requests cost far more than native ones,
  // and the exit-less RPC recovers most of the gap.
  const size_t kRequests = 300;

  auto run = [&](PsExecMode mode, PsBackend backend) {
    sim::Machine machine;
    PsConfig cfg;
    cfg.data_bytes = 1 << 20;  // small: no paging effects
    cfg.mode = mode;
    cfg.backend = backend;
    return RunPsWorkload(machine, cfg, 1, 0, kRequests).CyclesPerRequest();
  };

  const double native = run(PsExecMode::kNativeUntrusted, PsBackend::kUntrusted);
  const double ocall = run(PsExecMode::kSgxOcall, PsBackend::kEnclave);
  const double rpc = run(PsExecMode::kSgxRpc, PsBackend::kEnclave);

  EXPECT_GT(ocall, 4 * native) << "exits dominate small requests (§2.2)";
  EXPECT_LT(rpc, ocall / 2) << "exit-less RPC removes most of it (Fig 6a)";
  EXPECT_GT(rpc, native) << "but not all of it";
}

TEST(ParamServer, BatchingAmortizesExitCosts) {
  // Fig 6a: at 64 updates/request, OCALL and RPC converge.
  auto run = [&](PsExecMode mode, size_t updates) {
    sim::Machine machine;
    PsConfig cfg;
    cfg.data_bytes = 1 << 20;
    cfg.mode = mode;
    cfg.backend = PsBackend::kEnclave;
    return RunPsWorkload(machine, cfg, updates, 0, 200).CyclesPerRequest();
  };
  const double ratio_small = run(PsExecMode::kSgxOcall, 1) /
                             run(PsExecMode::kSgxRpc, 1);
  const double ratio_big = run(PsExecMode::kSgxOcall, 64) /
                           run(PsExecMode::kSgxRpc, 64);
  EXPECT_GT(ratio_small, 2.0);
  EXPECT_LT(ratio_big, 1.5);
  EXPECT_GT(ratio_small, ratio_big);
}

TEST(ParamServer, SuvmBackendServesCorrectlyUnderPaging) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 8 << 20;
  cfg.backend = PsBackend::kSuvm;
  cfg.mode = PsExecMode::kSgxRpc;
  cfg.suvm.epc_pp_pages = 256;  // 1 MiB EPC++ under an 8 MiB table: paging!
  cfg.suvm.backing_bytes = 32 << 20;
  const PsRunResult r = RunPsWorkload(machine, cfg, 2, 0, 200);
  EXPECT_EQ(r.requests, 200u);
  EXPECT_GT(r.total_cycles, 0u);
}

// --- Page-at-a-time fill ---
//
// Populate fills an identity-hashed open-addressing table a page at a time.
// Each test below builds two identical machines and servers: one populates,
// the other gets the same keys from per-key Inserts, the path every other
// table takes. Their bytes, SUVM and driver state must agree, and so must
// every clock after one charged update stream.

using Named = std::vector<std::pair<std::string, uint64_t>>;

// Every Suvm::Stats field but minor_faults: the fill merges the repeated
// pins of one page that the per-key path counts as minor faults.
Named SuvmStatsSansMinorFaults(const suvm::Suvm& suvm) {
  const suvm::Suvm::Stats& s = suvm.stats();
  return {
      {"major_faults", s.major_faults},
      {"evictions", s.evictions},
      {"writebacks", s.writebacks},
      {"clean_drops", s.clean_drops},
      {"direct_reads", s.direct_reads},
      {"direct_writes", s.direct_writes},
      {"mac_failures", s.mac_failures},
      {"rollbacks_detected", s.rollbacks_detected},
      {"retries", s.retries},
      {"alloc_failures", s.alloc_failures},
      {"pages_quarantined", s.pages_quarantined},
      {"quarantine_hits", s.quarantine_hits},
      {"pages_restored", s.pages_restored},
      {"degraded_rejects", s.degraded_rejects},
      {"journal_appends", s.journal_appends},
      {"journal_commits", s.journal_commits},
      {"checkpoints", s.checkpoints},
      {"host_crashes", s.host_crashes},
      {"recovery_attempts", s.recovery_attempts},
      {"recovery_pages_verified", s.recovery_pages_verified},
      {"recovery_pages_quarantined", s.recovery_pages_quarantined},
      {"recovery_journal_replayed", s.recovery_journal_replayed},
      {"recovery_journal_torn", s.recovery_journal_torn},
      {"recovery_rollbacks", s.recovery_rollbacks},
      {"fault_coalesced", s.fault_coalesced},
      {"gate_wait_cycles", s.gate_wait_cycles},
  };
}

Named DriverStats(sim::Machine& m) {
  const sim::SgxDriver::Stats& s = m.driver().stats();
  return {{"faults", s.faults},     {"evictions", s.evictions},
          {"page_ins", s.page_ins}, {"zero_fills", s.zero_fills},
          {"ipis", s.ipis}};
}

// Every CPU clock, the sim.cycles.* counters and the LLC and TLB counters.
Named Clocks(sim::Machine& m) {
  Named out;
  for (size_t i = 0; i < m.num_cpus(); ++i) {
    out.emplace_back("cpu" + std::to_string(i), m.cpu(i).clock.now());
    out.emplace_back("tlb_misses" + std::to_string(i), m.cpu(i).tlb.misses());
  }
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    const std::string name =
        std::string("sim.cycles.") +
        telemetry::CostCategoryName(static_cast<telemetry::CostCategory>(c));
    out.emplace_back(name, m.metrics().GetCounter(name)->value());
  }
  out.emplace_back("llc_hits", m.llc().hits());
  out.emplace_back("llc_misses", m.llc().misses());
  return out;
}

std::vector<uint8_t> RegionBytes(MemRegion& region) {
  std::vector<uint8_t> bytes(region.size());
  region.Read(nullptr, 0, bytes.data(), bytes.size());
  return bytes;
}

// One machine + server; `populate` picks the fill under test, otherwise the
// table gets per-key Inserts.
struct FillRig {
  FillRig(PsBackend backend, bool populate)
      : machine(MachineFor(backend)), server(machine, ConfigFor(backend)) {
    if (populate) {
      server.Populate();
    } else {
      for (uint64_t k = 0; k < server.table().buckets() / 2; ++k) {
        server.table().Insert(nullptr, k, k);
      }
    }
  }

  // A charged stream of 4-update requests over every key.
  void Serve(size_t requests) {
    PsLoadGenerator gen(server.num_keys(), 0, 4, 5, PsConfig{}.crypto_seed);
    std::vector<uint8_t> wire(gen.request_bytes());
    sim::CpuContext& cpu = machine.cpu(0);
    server.EnterServing(cpu);
    for (uint64_t i = 0; i < requests; ++i) {
      gen.MakeRequest(i, wire.data());
      server.HandleRequest(&cpu, wire.data(), wire.size());
    }
    server.ExitServing(cpu);
  }

  static sim::MachineConfig MachineFor(PsBackend backend) {
    sim::MachineConfig mc;
    if (backend == PsBackend::kEnclave) {
      mc.epc_frames = 128;  // the fill's 256 table pages overflow the EPC
    }
    return mc;
  }

  static PsConfig ConfigFor(PsBackend backend) {
    PsConfig cfg;
    cfg.data_bytes = 2 << 20;  // 131072 slots; the fill writes 256 pages
    cfg.backend = backend;
    cfg.mode = backend == PsBackend::kUntrusted ? PsExecMode::kNativeUntrusted
                                                : PsExecMode::kSgxRpcCat;
    cfg.suvm.epc_pp_pages = 64;  // a quarter of the fill: it evicts
    cfg.cluster_hot_keys = true;
    return cfg;
  }

  sim::Machine machine;
  ParamServer server;
};

class PageFill : public ::testing::TestWithParam<PsBackend> {};

TEST_P(PageFill, MatchesPerKeyInserts) {
  const PsBackend backend = GetParam();
  FillRig fill(backend, /*populate=*/true);
  FillRig ref(backend, /*populate=*/false);
  const size_t n = ref.server.table().buckets() / 2;
  ASSERT_EQ(fill.server.num_keys(), n);
  ASSERT_EQ(ref.server.num_keys(), n);

  EXPECT_EQ(DriverStats(fill.machine), DriverStats(ref.machine));
  if (backend == PsBackend::kSuvm) {
    EXPECT_EQ(SuvmStatsSansMinorFaults(*fill.server.suvm()),
              SuvmStatsSansMinorFaults(*ref.server.suvm()));
    EXPECT_GT(fill.server.suvm()->stats().evictions.load(), 0u);
    EXPECT_LT(fill.server.suvm()->stats().minor_faults.load(),
              ref.server.suvm()->stats().minor_faults.load());
  }
  if (backend == PsBackend::kEnclave) {
    EXPECT_GT(fill.machine.driver().stats().evictions, 0u);
  }

  if (backend == PsBackend::kUntrusted) {
    // Neither fill charges or touches the machine.
    sim::Machine fresh;
    EXPECT_EQ(Clocks(fill.machine), Clocks(fresh));
    EXPECT_EQ(Clocks(ref.machine), Clocks(fresh));
  }
  fill.Serve(300);
  ref.Serve(300);
  EXPECT_EQ(Clocks(fill.machine), Clocks(ref.machine));
  EXPECT_EQ(DriverStats(fill.machine), DriverStats(ref.machine));
  if (backend == PsBackend::kSuvm) {
    EXPECT_EQ(SuvmStatsSansMinorFaults(*fill.server.suvm()),
              SuvmStatsSansMinorFaults(*ref.server.suvm()));
  }
  EXPECT_TRUE(RegionBytes(fill.server.region()) ==
              RegionBytes(ref.server.region()));
}

TEST_P(PageFill, SecondPopulateKeepsKeyCount) {
  FillRig rig(GetParam(), /*populate=*/true);
  const size_t n = rig.server.num_keys();
  rig.server.Populate();
  EXPECT_EQ(rig.server.num_keys(), n);
  for (uint64_t k = 0; k < n; k += 97) {
    uint64_t v = ~0ull;
    ASSERT_TRUE(rig.server.table().Get(nullptr, k, &v)) << k;
    EXPECT_EQ(v, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PageFill,
    ::testing::Values(PsBackend::kUntrusted, PsBackend::kEnclave,
                      PsBackend::kSuvm),
    [](const ::testing::TestParamInfo<PsBackend>& p) {
      return p.param == PsBackend::kUntrusted ? "Untrusted"
             : p.param == PsBackend::kEnclave ? "Enclave"
                                              : "Suvm";
    });

// Hashed and chaining tables keep the per-key path: every key is present.
TEST(PerKeyFill, HashedAndChainingTablesHoldEveryKey) {
  for (const auto& [layout, identity] :
       {std::pair{HashLayout::kOpenAddressing, false},
        std::pair{HashLayout::kChaining, false},
        std::pair{HashLayout::kChaining, true}}) {
    sim::Machine machine;
    PsConfig cfg;
    cfg.data_bytes = 1 << 20;
    cfg.layout = layout;
    cfg.cluster_hot_keys = identity;
    ParamServer server(machine, cfg);
    server.Populate();
    const size_t n = server.table().buckets() / 2;
    EXPECT_EQ(server.num_keys(), n);
    for (uint64_t k = 0; k < n; ++k) {
      uint64_t v = ~0ull;
      ASSERT_TRUE(server.table().Get(nullptr, k, &v)) << k;
      ASSERT_EQ(v, k);
    }
  }
}

}  // namespace
}  // namespace eleos::apps
