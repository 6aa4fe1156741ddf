// Copyright (c) Eleos reproduction authors. MIT license.
//
// Wall-clock micro-benchmarks (google-benchmark) of the hot primitives.
// Unlike the figure benches these measure *real* time of this
// implementation, as a sanity check that the functional substrate is fast
// enough to run the simulations (crypto throughput, the LLC model and its tag
// store, allocator, first touches of the backing arena, spointer dereference,
// RPC queue round-trip, the face kernels and the face-database build).

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "src/apps/faceverif.h"
#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/crypto/ctr.h"
#include "src/crypto/gcm.h"
#include "src/crypto/sha256.h"
#include "src/rpc/job_queue.h"
#include "src/rpc/worker_pool.h"
#include "src/sim/cache_model.h"
#include "src/sim/lru_tag_store.h"
#include "src/suvm/backing_store.h"
#include "src/suvm/spointer.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

void BM_AesGcmSeal4K(benchmark::State& state) {
  const auto key = crypto::DeriveAesKey("bench", 1);
  crypto::AesGcm gcm(key.data());
  std::vector<uint8_t> pt(4096, 7), ct(4096);
  uint8_t nonce[12] = {1}, tag[16];
  for (auto _ : state) {
    gcm.Seal(nonce, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_AesGcmSeal4K);

// BM_AesGcmSeal4K into the next never-touched page of a BackingStore arena,
// as a page's first eviction writes it. The time over BM_AesGcmSeal4K, which
// seals into a hot buffer, is the host's first-touch cost of arena memory.
// A full arena is replaced by a fresh one outside the timed region.
void BM_SealIntoFreshArena(benchmark::State& state) {
  constexpr size_t kArenaBytes = 64ull << 20;
  const auto key = crypto::DeriveAesKey("bench", 1);
  crypto::AesGcm gcm(key.data());
  std::vector<uint8_t> pt(4096, 7);
  uint8_t nonce[12] = {1}, tag[16];
  const auto fresh_arena = [] {
    return std::make_unique<suvm::BackingStore>(
        suvm::BackingStore::Config{.capacity_bytes = kArenaBytes});
  };
  auto store = fresh_arena();
  size_t off = 0;
  for (auto _ : state) {
    if (off == kArenaBytes) {
      state.PauseTiming();
      store.reset();
      store = fresh_arena();
      off = 0;
      state.ResumeTiming();
    }
    uint8_t* const dst = store->Raw(off);
    gcm.Seal(nonce, nullptr, 0, pt.data(), pt.size(), dst, tag);
    benchmark::DoNotOptimize(dst);
    benchmark::DoNotOptimize(tag);
    benchmark::ClobberMemory();
    off += 4096;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_SealIntoFreshArena);

void BM_AesGcmOpen4K(benchmark::State& state) {
  const auto key = crypto::DeriveAesKey("bench", 1);
  crypto::AesGcm gcm(key.data());
  std::vector<uint8_t> pt(4096, 7), ct(4096);
  uint8_t nonce[12] = {1}, tag[16];
  gcm.Seal(nonce, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
  for (auto _ : state) {
    const bool ok = gcm.Open(nonce, nullptr, 0, ct.data(), ct.size(), tag, pt.data());
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_AesGcmOpen4K);

void BM_AesCtr4K(benchmark::State& state) {
  const auto key = crypto::DeriveAesKey("bench", 2);
  crypto::Aes128 aes(key.data());
  std::vector<uint8_t> buf(4096, 3);
  const uint8_t iv[12] = {9};
  for (auto _ : state) {
    crypto::AesCtrCrypt(aes, iv, 1, buf.data(), buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_AesCtr4K);

void BM_Sha256_4K(benchmark::State& state) {
  std::vector<uint8_t> buf(4096, 5);
  for (auto _ : state) {
    auto d = crypto::Sha256::Digest(buf.data(), buf.size());
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4K);

// The LLC traffic of one SUVM fault with a dirty victim, as
// Machine::StreamAccess hands it to the model: the victim page streams out
// (EPC read, backing-store write), then a random page streams in
// (backing-store read, EPC write), all through the enclave's CAT ways. Pages
// come from 32x the LLC, so nearly every line misses and replaces the least
// recent allowed way. `line` reads as host time per cache line.
void BM_LlcPageInStream(benchmark::State& state) {
  const sim::CostModel costs;
  sim::CacheModel llc(costs);
  llc.EnablePartitioning();
  constexpr uint64_t kPages = 1 << 16;                  // 256 MiB of pages
  constexpr uint64_t kLinesPerPage = 64;
  constexpr uint64_t kBackingLine = (1ull << 47) >> 6;  // SUVM backing-store base
  Xoshiro256 rng(1);
  const auto stream_page = [&](uint64_t first, bool write, sim::MemKind kind) {
    const uint64_t cycles = llc.AccessRange(first, first + kLinesPerPage - 1,
                                            write, kind, sim::kCosEnclave);
    benchmark::DoNotOptimize(cycles);
  };
  for (auto _ : state) {
    const uint64_t victim = rng.NextBelow(kPages) * kLinesPerPage;
    const uint64_t target = rng.NextBelow(kPages) * kLinesPerPage;
    stream_page(victim, /*write=*/false, sim::MemKind::kEpc);
    stream_page(kBackingLine + victim, /*write=*/true, sim::MemKind::kUntrusted);
    stream_page(kBackingLine + target, /*write=*/false, sim::MemKind::kUntrusted);
    stream_page(target, /*write=*/true, sim::MemKind::kEpc);
  }
  state.counters["line"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 4 * kLinesPerPage),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LlcPageInStream);

// The tag store alone, as the LLC and the MEE node cache drive it. StreamMiss
// feeds an 8,192-set, 16-way store the 64 lines of random pages from 32x its
// capacity through Eleos's 12-of-16-way enclave mask, so nearly every line
// misses in a full set. Repeat feeds a 1-set, 64-way store each page 64 times,
// as a page's EPC write stream reaches the MEE node cache: one lookup, then 63
// hits on the most recent way. `line` reads as host time per access.
void BM_LruTagStoreStreamMiss(benchmark::State& state) {
  constexpr size_t kSets = 8192;
  constexpr uint64_t kLinesPerPage = 64;
  sim::LruTagStore store(kSets, 16);
  Xoshiro256 rng(1);
  uint64_t hits = 0;
  for (auto _ : state) {
    const uint64_t first =
        rng.NextBelow(32 * kSets * 16 / kLinesPerPage) * kLinesPerPage;
    for (uint64_t line = first; line < first + kLinesPerPage; ++line) {
      hits += store.Access(line % kSets, line / kSets, 0x0fff);
    }
  }
  benchmark::DoNotOptimize(hits);
  state.counters["line"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kLinesPerPage),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LruTagStoreStreamMiss);

void BM_LruTagStoreRepeat(benchmark::State& state) {
  constexpr uint64_t kLinesPerPage = 64;
  sim::LruTagStore store(1, 64);
  Xoshiro256 rng(1);
  uint64_t hits = 0;
  for (auto _ : state) {
    const uint64_t page = rng.NextBelow(96);
    for (uint64_t line = 0; line < kLinesPerPage; ++line) {
      hits += store.Access(0, page);
    }
  }
  benchmark::DoNotOptimize(hits);
  state.counters["line"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kLinesPerPage),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LruTagStoreRepeat);

void BM_BuddyAllocFree(benchmark::State& state) {
  suvm::BackingStore bs({.capacity_bytes = 64ull << 20});
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const uint64_t a = bs.Alloc(16 + rng.NextBelow(4000));
    benchmark::DoNotOptimize(a);
    bs.Free(a);
  }
}
BENCHMARK(BM_BuddyAllocFree);

struct SuvmFixture {
  sim::Machine machine;
  sim::Enclave enclave{machine};
  suvm::Suvm suvm;
  SuvmFixture()
      : suvm(enclave, {.epc_pp_pages = 1024,
                       .backing_bytes = 16ull << 20,
                       .swapper_low_watermark = 0}) {}
};

void BM_SpointerDerefLinked(benchmark::State& state) {
  SuvmFixture f;
  auto p = suvm::SuvmAlloc<uint64_t>(f.suvm, 512);
  *p = 1;
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += p.Get();
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_SpointerDerefLinked);

void BM_SuvmReadResident4K(benchmark::State& state) {
  SuvmFixture f;
  const uint64_t a = ValueOrThrow(f.suvm.Malloc(1 << 20));
  uint8_t page[4096] = {1};
  for (size_t off = 0; off < (1 << 20); off += 4096) {
    ThrowIfError(f.suvm.Write(nullptr, a + off, page, 4096));
  }
  size_t off = 0;
  for (auto _ : state) {
    ThrowIfError(f.suvm.Read(nullptr, a + off, page, 4096));
    off = (off + 4096) % (1 << 20);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_SuvmReadResident4K);

void BM_SuvmSoftFault(benchmark::State& state) {
  SuvmFixture f;
  const size_t pages = 2048;  // 2x EPC++
  const uint64_t a = ValueOrThrow(f.suvm.Malloc(pages * 4096));
  uint8_t page[4096] = {1};
  for (size_t p = 0; p < pages; ++p) {
    ThrowIfError(f.suvm.Write(nullptr, a + p * 4096, page, 4096));
  }
  size_t p = 0;
  for (auto _ : state) {
    ThrowIfError(f.suvm.Read(nullptr, a + p * 4096, page, 8));
    p = (p + 1031) % pages;  // stride guarantees misses
  }
}
BENCHMARK(BM_SuvmSoftFault);

void BM_RpcQueueRoundTrip(benchmark::State& state) {
  rpc::JobQueue queue(8);
  rpc::WorkerPool pool(queue, 1);
  auto fn = +[](void* arg) { ++*static_cast<uint64_t*>(arg); };
  uint64_t counter = 0;
  for (auto _ : state) {
    const rpc::JobTicket ticket = queue.Submit(fn, &counter);
    queue.AwaitAndRelease(ticket);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_RpcQueueRoundTrip);

// The face kernels and the database build that make up most of faceverif's
// set-up. BM_FaceDatabaseBuild stores 64 people in untrusted memory, on as
// many host threads as BuildDatabase takes, so it reads real time.
void BM_SynthesizeFace(benchmark::State& state) {
  uint64_t person = 0;
  for (auto _ : state) {
    const apps::FaceImage img = apps::SynthesizeFace(person++);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_SynthesizeFace);

void BM_LbpHistogram(benchmark::State& state) {
  const sim::CostModel costs;
  std::vector<apps::FaceImage> faces;
  for (uint64_t person = 0; person < 16; ++person) {
    faces.push_back(apps::SynthesizeFace(person));
  }
  size_t i = 0;
  for (auto _ : state) {
    const apps::Histogram h =
        apps::ComputeLbpHistogram(nullptr, costs, faces[i++ % faces.size()]);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_LbpHistogram);

void BM_FaceDatabaseBuild(benchmark::State& state) {
  constexpr size_t kPeople = 64;
  sim::Machine machine;
  apps::UntrustedRegion region(machine, kPeople * apps::kHistogramBytes);
  for (auto _ : state) {
    apps::FaceVerifServer server(machine, region, kPeople);
    server.BuildDatabase();
    benchmark::DoNotOptimize(server.threshold());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPeople));
}
BENCHMARK(BM_FaceDatabaseBuild)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eleos

BENCHMARK_MAIN();
