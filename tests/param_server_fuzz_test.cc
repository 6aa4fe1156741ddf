// Copyright (c) Eleos reproduction authors. MIT license.
//
// Parameter-server fuzz: both hash-table layouts, all backends, mirrored
// against std::unordered_map under a random insert/update/get workload, and
// full request pipelines cross-checked between execution modes.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "src/apps/param_server.h"
#include "src/common/rng.h"

namespace eleos::apps {
namespace {

struct FuzzParams {
  HashLayout layout;
  PsBackend backend;
  bool identity_hash;
  uint64_t seed;
};

class PsFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(PsFuzz, TableMatchesUnorderedMap) {
  const FuzzParams param = GetParam();
  sim::Machine machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<suvm::Suvm> suvm;
  std::unique_ptr<MemRegion> region;
  const size_t bytes = 1 << 20;
  switch (param.backend) {
    case PsBackend::kUntrusted:
      region = std::make_unique<UntrustedRegion>(machine, bytes);
      break;
    case PsBackend::kEnclave:
      enclave = std::make_unique<sim::Enclave>(machine);
      region = std::make_unique<EnclaveRegion>(*enclave, bytes);
      break;
    case PsBackend::kSuvm: {
      enclave = std::make_unique<sim::Enclave>(machine);
      suvm::SuvmConfig sc;
      sc.epc_pp_pages = 32;
      sc.backing_bytes = 4 << 20;
      suvm = std::make_unique<suvm::Suvm>(*enclave, sc);
      region = std::make_unique<SuvmRegion>(*suvm, bytes);
      break;
    }
  }
  const size_t buckets = 8192;
  PsHashTable table(*region, param.layout, buckets, buckets / 2,
                    param.identity_hash);
  std::unordered_map<uint64_t, uint64_t> reference;

  Xoshiro256 rng(param.seed);
  const uint64_t key_space = param.identity_hash ? buckets / 2 : 1u << 20;
  for (int step = 0; step < 5000; ++step) {
    const uint64_t key = rng.NextBelow(key_space);
    const uint64_t op = rng.NextBelow(100);
    if (op < 30 && reference.count(key) == 0 &&
        reference.size() < buckets / 2 - 64) {
      const uint64_t value = rng.Next() % 100000;
      ASSERT_TRUE(table.Insert(nullptr, key, value));
      reference[key] = value;
    } else if (op < 60) {
      const uint64_t delta = rng.NextBelow(50);
      const bool ok = table.Update(nullptr, key, delta);
      ASSERT_EQ(ok, reference.count(key) > 0) << "step " << step;
      if (ok) {
        reference[key] += delta;
      }
    } else {
      uint64_t value = 0;
      const bool ok = table.Get(nullptr, key, &value);
      auto it = reference.find(key);
      ASSERT_EQ(ok, it != reference.end()) << "step " << step;
      if (ok) {
        ASSERT_EQ(value, it->second);
      }
    }
  }
  // Full sweep.
  for (const auto& [key, expected] : reference) {
    uint64_t value = 0;
    ASSERT_TRUE(table.Get(nullptr, key, &value)) << key;
    ASSERT_EQ(value, expected) << key;
  }
  region.reset();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PsFuzz,
    ::testing::Values(
        FuzzParams{HashLayout::kOpenAddressing, PsBackend::kUntrusted, false, 1},
        FuzzParams{HashLayout::kChaining, PsBackend::kUntrusted, false, 2},
        FuzzParams{HashLayout::kOpenAddressing, PsBackend::kEnclave, false, 3},
        FuzzParams{HashLayout::kChaining, PsBackend::kEnclave, false, 4},
        FuzzParams{HashLayout::kOpenAddressing, PsBackend::kSuvm, false, 5},
        FuzzParams{HashLayout::kChaining, PsBackend::kSuvm, false, 6},
        FuzzParams{HashLayout::kOpenAddressing, PsBackend::kUntrusted, true, 7},
        FuzzParams{HashLayout::kChaining, PsBackend::kSuvm, true, 8}));

// The same request stream must leave identical table state regardless of
// execution mode (native / OCALL / RPC / RPC+CAT differ only in cost).
TEST(PsModes, RequestStreamGivesIdenticalState) {
  auto final_values = [](PsExecMode mode, PsBackend backend) {
    sim::Machine machine;
    PsConfig cfg;
    cfg.data_bytes = 1 << 20;
    cfg.mode = mode;
    cfg.backend = backend;
    cfg.suvm.epc_pp_pages = 64;
    cfg.suvm.backing_bytes = 4 << 20;
    ParamServer server(machine, cfg);
    server.Populate();
    PsLoadGenerator gen(server.num_keys(), 0, 4, 99, cfg.crypto_seed);
    std::vector<uint8_t> wire(gen.request_bytes());
    sim::CpuContext& cpu = machine.cpu(0);
    server.EnterServing(cpu);
    for (int i = 0; i < 300; ++i) {
      gen.MakeRequest(static_cast<uint64_t>(i), wire.data());
      server.HandleRequest(&cpu, wire.data(), wire.size());
    }
    server.ExitServing(cpu);
    return server.requests_served();
  };
  const auto native =
      final_values(PsExecMode::kNativeUntrusted, PsBackend::kUntrusted);
  const auto ocall = final_values(PsExecMode::kSgxOcall, PsBackend::kEnclave);
  const auto rpc = final_values(PsExecMode::kSgxRpcCat, PsBackend::kSuvm);
  EXPECT_EQ(native, 300u);
  EXPECT_EQ(ocall, 300u);
  EXPECT_EQ(rpc, 300u);
}

}  // namespace
}  // namespace eleos::apps
