// Copyright (c) Eleos reproduction authors. MIT license.
//
// A memcached-style secure key-value cache (§5.1) as a runnable example,
// using the C-level SUVM API exactly as the paper's 75-line memcached
// integration does: item metadata (hash chains, LRU, slab bookkeeping) in
// cleartext untrusted memory; keys, values, and sizes in SUVM.
//
// Run:  ./build/examples/kv_cache

#include <cstdio>
#include <cstring>
#include <string>

#include "src/apps/kvcache.h"
#include "src/rpc/rpc_manager.h"
#include "src/suvm/suvm.h"
#include "src/suvm/suvm_c.h"

int main() {
  using namespace eleos;

  sim::Machine machine;
  sim::Enclave enclave(machine, "kvcache");

  suvm::SuvmConfig sc;
  sc.epc_pp_pages = (8ull << 20) / 4096;  // 8 MiB page cache
  sc.backing_bytes = 128ull << 20;
  suvm::Suvm suvm(enclave, sc);

  std::printf("== Secure KV cache (memcached-style) over SUVM ==\n\n");

  // --- Low-level taste of the C API the cache is built on ---
  suvm_ctx* ctx = suvm_ctx_from(&suvm);
  // Every call returns a status; a C program checks it instead of catching.
  suvm_addr_t secret = 0;
  char read_back[15];
  if (suvm_malloc(ctx, 64, &secret) != SUVM_OK ||
      suvm_set_bytes(ctx, secret, "attack at dawn", 15) != SUVM_OK ||
      suvm_get_bytes(ctx, secret, read_back, sizeof(read_back)) != SUVM_OK) {
    std::fprintf(stderr, "SUVM C API call failed\n");
    return 1;
  }
  std::printf("C API round-trip: \"%s\"\n", read_back);
  if (suvm_free(ctx, secret) != SUVM_OK) {
    return 1;
  }

  // --- The cache itself: 32 MiB of secure values through 8 MiB of EPC++ ---
  apps::KvCache::Options opts;
  opts.pool_bytes = 48ull << 20;
  apps::SuvmRegion region(suvm, opts.pool_bytes);
  apps::KvCache cache(machine, region, opts);

  rpc::RpcManager rpc(enclave, {.mode = rpc::RpcManager::Mode::kInline,
                                .use_cat = true});
  sim::CpuContext& cpu = machine.cpu(0);
  cpu.cos = rpc.enclave_cos();
  enclave.Enter(cpu);

  const int items = 20000;
  std::string value(1500, '#');
  for (int i = 0; i < items; ++i) {
    rpc.Call(&cpu, 64 + value.size(), [] {});  // exit-less "recv" of the SET
    value[0] = static_cast<char>('A' + i % 26);
    cache.Set(&cpu, "user:" + std::to_string(i), value.data(), value.size());
  }
  std::printf("stored %d items (%.0f MiB of secure data)\n", items,
              items * 1508.0 / (1 << 20));

  int hits = 0;
  char out[2048];
  for (int i = 0; i < items; i += 7) {
    rpc.Call(&cpu, 64, [] {});
    const int64_t n = cache.Get(&cpu, "user:" + std::to_string(i), out, sizeof(out));
    if (n == 1500 && out[0] == 'A' + i % 26) {
      ++hits;
    }
  }
  enclave.Exit(cpu);

  std::printf("verified %d / %d sampled GETs\n", hits, (items + 6) / 7);
  std::printf("\nSUVM stats: %lu software faults, %lu evictions "
              "(%lu write-backs, %lu clean drops)\n",
              static_cast<unsigned long>(suvm.stats().major_faults.load()),
              static_cast<unsigned long>(suvm.stats().evictions.load()),
              static_cast<unsigned long>(suvm.stats().writebacks.load()),
              static_cast<unsigned long>(suvm.stats().clean_drops.load()));
  std::printf("hardware EPC faults: %lu; TLB flushes on the serving thread: %lu\n",
              static_cast<unsigned long>(machine.driver().stats().faults),
              static_cast<unsigned long>(cpu.tlb.flushes()));
  std::printf("cache stats: %lu sets, %lu gets, %lu hits, %lu LRU evictions\n",
              static_cast<unsigned long>(cache.stats().sets),
              static_cast<unsigned long>(cache.stats().gets),
              static_cast<unsigned long>(cache.stats().get_hits),
              static_cast<unsigned long>(cache.stats().evictions));
  return 0;
}
