// Copyright (c) Eleos reproduction authors. MIT license.
//
// Virtual time depends only on the seed, never on the host heap. Each test
// runs one charged workload twice in one process, the second time after a
// seeded allocation of random size has shifted the heap, and requires equal
// CPU clocks and equal sim.cycles.* counters. KvCache's metadata and
// UntrustedRegion charge ranges from Machine::ReserveRange, not their host
// pointers; charging `items_.data()` or the region's buffer fails this.

#include <gtest/gtest.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/kvcache.h"
#include "src/apps/param_server.h"
#include "src/common/rng.h"

namespace eleos::apps {
namespace {

using Named = std::vector<std::pair<std::string, uint64_t>>;

uint8_t* volatile g_hold = nullptr;

// Names for every CPU clock and every sim.cycles.* counter. Built before a
// run's machine, so that reading the values allocates nothing above the
// run's buffers and their heap is free again once the run returns.
Named ClockNames() {
  Named out;
  for (size_t i = 0; i < sim::kMaxCpus; ++i) {
    out.emplace_back("cpu" + std::to_string(i), 0);
  }
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    out.emplace_back(
        std::string("sim.cycles.") +
            telemetry::CostCategoryName(static_cast<telemetry::CostCategory>(c)),
        0);
  }
  return out;
}

void ReadClocks(sim::Machine& m, Named* out) {
  for (size_t i = 0; i < sim::kMaxCpus; ++i) {
    (*out)[i].second = m.cpu(i).clock.now();
  }
  for (size_t i = sim::kMaxCpus; i < out->size(); ++i) {
    (*out)[i].second = m.metrics().CounterValue((*out)[i].first);
  }
}

// kv_get in miniature: 1 KiB values on a data set 4x EPC++ in SUVM, uniform
// GETs spread over two CPUs.
void KvGetRun(Named* out) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = 256;
  sc.backing_bytes = 16 << 20;
  suvm::Suvm suvm(enclave, sc);
  KvCache::Options opts;
  opts.pool_bytes = 8 << 20;
  opts.hash_buckets = 4096;
  SuvmRegion region(suvm, opts.pool_bytes);
  KvCache cache(machine, region, opts);

  constexpr uint64_t kKeys = 4096;
  std::vector<uint8_t> value(1024);
  for (uint64_t k = 0; k < kKeys; ++k) {
    value[0] = static_cast<uint8_t>(k);
    EXPECT_TRUE(cache.Set(nullptr, "key" + std::to_string(k), value.data(),
                          value.size()));
  }
  Xoshiro256 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.NextBelow(kKeys);
    EXPECT_EQ(cache.Get(&machine.cpu(static_cast<size_t>(i) % 2),
                        "key" + std::to_string(k), value.data(), value.size()),
              1024);
  }
  ReadClocks(machine, out);
}

// Fig 1's native parameter server: the table in an UntrustedRegion.
void NativeParamServerRun(Named* out) {
  sim::Machine machine;
  PsConfig cfg;
  cfg.data_bytes = 16 << 20;
  cfg.backend = PsBackend::kUntrusted;
  cfg.mode = PsExecMode::kNativeUntrusted;
  RunPsWorkload(machine, cfg, /*updates_per_request=*/4, /*hot_keys=*/0,
                /*n_requests=*/3000, /*seed=*/3);
  ReadClocks(machine, out);
}

// Runs `run` as is, then again after a seeded allocation of random size
// has moved the heap, and compares the two. Each shifted run starts on a
// thread of its own: glibc gives it an arena that earlier runs left no holes
// in, so the allocation lands first and moves every buffer the run
// allocates by a random multiple of 16 bytes.
template <typename Run>
void ExpectHeapIndependent(Run run) {
#ifdef __GLIBC__
  // Large buffers too stay in the arena rather than in mmap chunks of their
  // own, which are page-aligned wherever the heap is.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  Named before = ClockNames();
  Named after = before;
  run(&before);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
    const size_t shift = 16 * (1 + rng.NextBelow(1 << 16));
    std::thread([&] {
      std::unique_ptr<uint8_t[]> hold(new uint8_t[shift]);
      g_hold = hold.get();  // escapes, so the allocation is not elided
      run(&after);
    }).join();
    EXPECT_EQ(after, before) << "heap shifted by " << shift << " bytes";
  }
}

TEST(HeapShift, KvCacheGetCyclesIgnoreTheHostHeap) {
  ExpectHeapIndependent(KvGetRun);
}

TEST(HeapShift, NativeParamServerCyclesIgnoreTheHostHeap) {
  ExpectHeapIndependent(NativeParamServerRun);
}

}  // namespace
}  // namespace eleos::apps
