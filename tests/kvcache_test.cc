// Copyright (c) Eleos reproduction authors. MIT license.
//
// KvCache (the memcached analogue): slab allocator classes, SET/GET/DELETE,
// LRU eviction, and behaviour across secure-memory backends.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/apps/kvcache.h"

namespace eleos::apps {
namespace {

TEST(SlabAllocator, ClassSizesGrowByFactor) {
  SlabAllocator slab(16 << 20);
  ASSERT_GT(slab.classes(), 10u);
  for (size_t c = 1; c < slab.classes(); ++c) {
    EXPECT_GT(slab.ChunkSize(static_cast<int>(c)),
              slab.ChunkSize(static_cast<int>(c - 1)));
    if (c + 1 < slab.classes()) {
      const double growth =
          static_cast<double>(slab.ChunkSize(static_cast<int>(c))) /
          static_cast<double>(slab.ChunkSize(static_cast<int>(c - 1)));
      EXPECT_LE(growth, 1.3);
    }
  }
}

TEST(SlabAllocator, AllocFreeReuse) {
  SlabAllocator slab(4 << 20);
  int cls = -1;
  const uint64_t a = slab.Alloc(100, &cls);
  ASSERT_NE(a, UINT64_MAX);
  EXPECT_GE(slab.ChunkSize(cls), 100u);
  slab.Free(a, 100);
  const uint64_t b = slab.Alloc(100);
  EXPECT_EQ(b, a);  // freelist reuse
}

TEST(SlabAllocator, DistinctChunksDoNotOverlap) {
  SlabAllocator slab(4 << 20);
  std::vector<uint64_t> offs;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t o = slab.Alloc(1000);
    ASSERT_NE(o, UINT64_MAX);
    offs.push_back(o);
  }
  std::sort(offs.begin(), offs.end());
  const size_t chunk = slab.ChunkSize(slab.ClassFor(1000));
  for (size_t i = 1; i < offs.size(); ++i) {
    EXPECT_GE(offs[i] - offs[i - 1], chunk);
  }
}

TEST(SlabAllocator, ExhaustionReturnsSentinel) {
  SlabAllocator slab(1 << 20);  // exactly one slab page
  const size_t chunk_bytes = 1000;
  const size_t chunk = slab.ChunkSize(slab.ClassFor(chunk_bytes));
  const size_t fit = SlabAllocator::kSlabBytes / chunk;
  for (size_t i = 0; i < fit; ++i) {
    ASSERT_NE(slab.Alloc(chunk_bytes), UINT64_MAX) << i;
  }
  EXPECT_EQ(slab.Alloc(chunk_bytes), UINT64_MAX);
}

struct KvWorld {
  explicit KvWorld(bool use_suvm = false, size_t pool_mb = 8,
                   KvCache::Options opts = {}) {
    sim::MachineConfig mc;
    machine = std::make_unique<sim::Machine>(mc);
    opts.pool_bytes = pool_mb << 20;
    if (use_suvm) {
      enclave = std::make_unique<sim::Enclave>(*machine);
      suvm::SuvmConfig sc;
      sc.epc_pp_pages = 512;
      sc.backing_bytes = 64 << 20;
      suvm = std::make_unique<suvm::Suvm>(*enclave, sc);
      region = std::make_unique<SuvmRegion>(*suvm, opts.pool_bytes);
    } else {
      region = std::make_unique<UntrustedRegion>(*machine, opts.pool_bytes);
    }
    cache = std::make_unique<KvCache>(*machine, *region, opts);
  }
  ~KvWorld() {
    cache.reset();
    region.reset();
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<suvm::Suvm> suvm;
  std::unique_ptr<MemRegion> region;
  std::unique_ptr<KvCache> cache;
};

TEST(KvCache, SetGetDelete) {
  KvWorld w;
  std::string value(500, 'v');
  ASSERT_TRUE(w.cache->Set(nullptr, "key1", value.data(), value.size()));
  char out[600];
  const int64_t n = w.cache->Get(nullptr, "key1", out, sizeof(out));
  ASSERT_EQ(n, 500);
  EXPECT_EQ(0, std::memcmp(out, value.data(), 500));

  EXPECT_EQ(w.cache->Get(nullptr, "nope", out, sizeof(out)), -1);
  EXPECT_TRUE(w.cache->Delete(nullptr, "key1"));
  EXPECT_EQ(w.cache->Get(nullptr, "key1", out, sizeof(out)), -1);
  EXPECT_FALSE(w.cache->Delete(nullptr, "key1"));
}

TEST(KvCache, OverwriteReplacesValue) {
  KvWorld w;
  const char* v1 = "first";
  const char* v2 = "second-longer-value";
  ASSERT_TRUE(w.cache->Set(nullptr, "k", v1, 5));
  ASSERT_TRUE(w.cache->Set(nullptr, "k", v2, 19));
  char out[64];
  ASSERT_EQ(w.cache->Get(nullptr, "k", out, sizeof(out)), 19);
  EXPECT_EQ(0, std::memcmp(out, v2, 19));
  EXPECT_EQ(w.cache->item_count(), 1u);
}

TEST(KvCache, ManyItemsAcrossClasses) {
  // Values span ~12 slab classes; each class carves 1 MiB slab pages, so the
  // pool must hold at least that many slabs.
  KvWorld w(false, 32);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::string value(100 + static_cast<size_t>(i % 900), 'a' + i % 26);
    ASSERT_TRUE(w.cache->Set(nullptr, key, value.data(), value.size())) << i;
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    std::string out(1024, 0);
    const int64_t n = w.cache->Get(nullptr, key, out.data(), out.size());
    ASSERT_EQ(n, static_cast<int64_t>(100 + i % 900)) << i;
    EXPECT_EQ(out[0], 'a' + i % 26);
  }
  EXPECT_EQ(w.cache->stats().get_hits, 2000u);
}

TEST(KvCache, LruEvictionWhenFull) {
  KvWorld w(false, 2);  // 2 MiB pool = two slab pages
  const std::string value(900, 'x');
  int stored = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (!w.cache->Set(nullptr, key, value.data(), value.size())) {
      break;
    }
    ++stored;
  }
  EXPECT_EQ(stored, 5000) << "eviction must make room";
  EXPECT_GT(w.cache->stats().evictions, 0u);
  // The most recent keys survive; the oldest were evicted.
  char out[1024];
  EXPECT_GT(w.cache->Get(nullptr, "k4999", out, sizeof(out)), 0);
  EXPECT_EQ(w.cache->Get(nullptr, "k0", out, sizeof(out)), -1);
}

TEST(KvCache, SuvmBackendPagesCorrectly) {
  KvWorld w(true, 16);
  // 16 MiB of values through a 2 MiB EPC++ page cache.
  const std::string value(4000, 'z');
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "suvm-key-" + std::to_string(i);
    ASSERT_TRUE(w.cache->Set(nullptr, key, value.data(), value.size()));
  }
  EXPECT_GT(w.suvm->stats().evictions.load(), 0u);
  char out[4096];
  for (int i = 0; i < 3000; i += 97) {
    const std::string key = "suvm-key-" + std::to_string(i);
    ASSERT_EQ(w.cache->Get(nullptr, key, out, sizeof(out)), 4000) << i;
    EXPECT_EQ(out[0], 'z');
  }
}

TEST(KvCache, ValueTooLargeForAnyClassFails) {
  KvWorld w;
  std::vector<char> huge(2 << 20, 'h');
  EXPECT_FALSE(w.cache->Set(nullptr, "huge", huge.data(), huge.size()));
}

// Region that counts its accesses: pins how often a KvCache op crosses into
// the secure region.
class CountingRegion : public UntrustedRegion {
 public:
  using UntrustedRegion::UntrustedRegion;

  Status TryRead(sim::CpuContext* cpu, uint64_t off, void* dst,
                 size_t n) override {
    ++reads;
    return UntrustedRegion::TryRead(cpu, off, dst, n);
  }
  Status TryWrite(sim::CpuContext* cpu, uint64_t off, const void* src,
                  size_t n) override {
    ++writes;
    return UntrustedRegion::TryWrite(cpu, off, src, n);
  }

  int reads = 0;
  int writes = 0;
};

// Region whose TryWrite fails after a countdown of successful writes —
// drives Set/MultiSet's partial-failure unwinding (each Set issues exactly
// one region write: the whole record). A torn failure lands the first half
// of the bytes before it fails, as a write cut off mid-copy would.
class FailingRegion : public UntrustedRegion {
 public:
  FailingRegion(sim::Machine& machine, size_t bytes)
      : UntrustedRegion(machine, bytes) {}

  Status TryWrite(sim::CpuContext* cpu, uint64_t off, const void* src,
                  size_t n) override {
    if (writes_until_fail_ == 0) {
      if (torn_) {
        ThrowIfError(UntrustedRegion::TryWrite(cpu, off, src, n / 2));
      }
      return Status::Unavailable("injected region write failure");
    }
    if (writes_until_fail_ > 0) {
      --writes_until_fail_;
    }
    return UntrustedRegion::TryWrite(cpu, off, src, n);
  }
  void FailAfter(int64_t writes, bool torn = false) {
    writes_until_fail_ = writes;
    torn_ = torn;
  }
  void Heal() { writes_until_fail_ = -1; }

 private:
  int64_t writes_until_fail_ = -1;  // -1 = never fail
  bool torn_ = false;
};

TEST(KvCache, OverwriteWriteFailureKeepsOldValue) {
  // Regression: the old Set removed the existing record BEFORE writing the
  // replacement, so a failed write lost the previous value too. The
  // unlink-keep-relink protocol must leave the old value readable.
  sim::Machine machine;
  FailingRegion region(machine, 4 << 20);
  KvCache::Options opts;
  opts.pool_bytes = 4 << 20;
  opts.hash_buckets = 64;
  KvCache cache(machine, region, opts);

  const std::string old_v(200, 'o'), new_v(210, 'n');
  ASSERT_TRUE(cache.Set(nullptr, "k", old_v.data(), old_v.size()));

  region.FailAfter(0);  // every region write fails
  EXPECT_FALSE(cache.Set(nullptr, "k", new_v.data(), new_v.size()));
  EXPECT_FALSE(cache.last_status().ok());
  EXPECT_GT(cache.stats().io_errors, 0u);

  region.Heal();
  std::string out(1024, 0);
  int64_t n = cache.Get(nullptr, "k", out.data(), out.size());
  ASSERT_EQ(n, static_cast<int64_t>(old_v.size()));
  EXPECT_EQ(out.substr(0, static_cast<size_t>(n)), old_v);
  EXPECT_EQ(cache.item_count(), 1u);

  // Fully recovered: the overwrite now lands.
  ASSERT_TRUE(cache.Set(nullptr, "k", new_v.data(), new_v.size()));
  n = cache.Get(nullptr, "k", out.data(), out.size());
  ASSERT_EQ(n, static_cast<int64_t>(new_v.size()));
  EXPECT_EQ(out.substr(0, static_cast<size_t>(n)), new_v);
  EXPECT_EQ(cache.item_count(), 1u);
}

TEST(KvCache, OverwriteMidRecordFailureKeepsOldValue) {
  // The replacement's write tears: its first half lands and the rest fails.
  // The half-written new chunk must be discarded and the old record restored.
  sim::Machine machine;
  FailingRegion region(machine, 4 << 20);
  KvCache::Options opts;
  opts.pool_bytes = 4 << 20;
  opts.hash_buckets = 64;
  KvCache cache(machine, region, opts);

  const std::string old_v(300, 'o'), new_v(300, 'n');
  ASSERT_TRUE(cache.Set(nullptr, "mid", old_v.data(), old_v.size()));

  region.FailAfter(0, /*torn=*/true);
  EXPECT_FALSE(cache.Set(nullptr, "mid", new_v.data(), new_v.size()));

  region.Heal();
  std::string out(1024, 0);
  const int64_t n = cache.Get(nullptr, "mid", out.data(), out.size());
  ASSERT_EQ(n, static_cast<int64_t>(old_v.size()));
  EXPECT_EQ(out.substr(0, static_cast<size_t>(n)), old_v);
}

TEST(KvCache, MultiSetPartialFailureLeavesOldValuesIntact) {
  sim::Machine machine;
  FailingRegion region(machine, 4 << 20);
  KvCache::Options opts;
  opts.pool_bytes = 4 << 20;
  opts.hash_buckets = 64;
  KvCache cache(machine, region, opts);

  const std::string old_a(100, 'a'), old_b(100, 'b');
  ASSERT_TRUE(cache.Set(nullptr, "a", old_a.data(), old_a.size()));
  ASSERT_TRUE(cache.Set(nullptr, "b", old_b.data(), old_b.size()));

  // The first pair's write lands; the second pair's write fails.
  region.FailAfter(1);
  const std::string new_a(120, 'A'), new_b(120, 'B');
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", new_a}, {"b", new_b}};
  EXPECT_EQ(cache.MultiSet(nullptr, pairs), 1u);

  region.Heal();
  std::string out(1024, 0);
  int64_t n = cache.Get(nullptr, "a", out.data(), out.size());
  ASSERT_EQ(n, static_cast<int64_t>(new_a.size()));
  EXPECT_EQ(out.substr(0, static_cast<size_t>(n)), new_a);
  n = cache.Get(nullptr, "b", out.data(), out.size());
  ASSERT_EQ(n, static_cast<int64_t>(old_b.size()))
      << "partial MultiSet failure must not lose b's old value";
  EXPECT_EQ(out.substr(0, static_cast<size_t>(n)), old_b);
  EXPECT_EQ(cache.item_count(), 2u);
}

TEST(KvCache, GetHitReadsTheRegionTwice) {
  // One read for the record's lengths and key echo, one for the value.
  sim::Machine machine;
  CountingRegion region(machine, 4 << 20);
  KvCache::Options opts;
  opts.pool_bytes = 4 << 20;
  KvCache cache(machine, region, opts);
  const std::string value(300, 'g');
  ASSERT_TRUE(cache.Set(nullptr, "key", value.data(), value.size()));

  region.reads = 0;
  std::string out(1024, 0);
  ASSERT_EQ(cache.Get(nullptr, "key", out.data(), out.size()), 300);
  EXPECT_EQ(out.substr(0, 300), value);
  EXPECT_EQ(region.reads, 2);
}

TEST(KvCache, NewKeySetWritesOneRecord) {
  sim::Machine machine;
  CountingRegion region(machine, 4 << 20);
  KvCache::Options opts;
  opts.pool_bytes = 4 << 20;
  KvCache cache(machine, region, opts);
  const std::string value(300, 's');
  ASSERT_TRUE(cache.Set(nullptr, "key", value.data(), value.size()));
  EXPECT_EQ(region.writes, 1);
  EXPECT_EQ(region.reads, 0);  // an empty bucket has no key echo to read
}

TEST(KvCache, MultiGetReturnsWholeValuesPast64KiB) {
  // MultiGet once read into a 64 KiB scratch buffer: a larger value came
  // back cut to 65,536 bytes and still counted as a hit.
  KvWorld w;
  std::string big(100 << 10, 'b');
  for (size_t i = 0; i < big.size(); i += 4096) {
    big[i] = static_cast<char>('a' + i / 4096 % 26);
  }
  ASSERT_TRUE(w.cache->Set(nullptr, "big", big.data(), big.size()));
  ASSERT_TRUE(w.cache->Set(nullptr, "small", "tiny", 4));

  std::vector<std::vector<uint8_t>> values;
  EXPECT_EQ(w.cache->MultiGet(nullptr, {"big", "absent", "small"}, &values),
            2u);
  ASSERT_EQ(values.size(), 3u);
  ASSERT_EQ(values[0].size(), 102400u);
  EXPECT_EQ(std::string(values[0].begin(), values[0].end()), big);
  EXPECT_TRUE(values[1].empty());
  EXPECT_EQ(std::string(values[2].begin(), values[2].end()), "tiny");

  // Reused output: a slot that held a hit is emptied by a miss.
  EXPECT_EQ(w.cache->MultiGet(nullptr, {"absent", "small"}, &values), 1u);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_TRUE(values[0].empty());
  EXPECT_EQ(std::string(values[1].begin(), values[1].end()), "tiny");
}

TEST(KvCache, MetadataPlacementAblationRuns) {
  KvCache::Options opts;
  opts.metadata_in_secure_memory = true;
  KvWorld w(false, 8, opts);
  ASSERT_TRUE(w.cache->Set(nullptr, "a", "1", 1));
  char out[8];
  sim::CpuContext& cpu = w.machine->cpu(0);
  EXPECT_EQ(w.cache->Get(&cpu, "a", out, sizeof(out)), 1);
  EXPECT_GT(cpu.clock.now(), 0u);
}

}  // namespace
}  // namespace eleos::apps
