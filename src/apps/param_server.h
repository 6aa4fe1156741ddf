// Copyright (c) Eleos reproduction authors. MIT license.
//
// The parameter server of §2: the paper's microbenchmark workload. A hash
// table of 8-byte keys/values; clients send encrypted batches of in-place
// updates; the server decrypts, applies them, and replies.
//
// Everything the paper varies is a knob here:
//  * table layout: open addressing vs chaining (TLB sensitivity, Fig 2b/6c)
//  * storage backend: untrusted / enclave(EPC) / SUVM
//  * syscall mode: native / OCALL / exit-less RPC (± CAT)   (Fig 1, 6a, 6b)
//  * working-set size and hot-set restriction               (Fig 2a, 6b)

#ifndef ELEOS_SRC_APPS_PARAM_SERVER_H_
#define ELEOS_SRC_APPS_PARAM_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/crypto/ctr.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/enclave.h"
#include "src/suvm/suvm.h"

namespace eleos::apps {

enum class HashLayout { kOpenAddressing, kChaining };

// Instrumented hash table of uint64 -> uint64 over a MemRegion.
//
// Open addressing: `buckets` 16-byte slots {key+1, value} (0 = empty).
// Chaining: `buckets` 8-byte head indices, then a node pool of 24-byte
// {key, value, next} records — the pointer-chasing layout of Fig 2b.
class PsHashTable {
 public:
  // `identity_hash` maps key k to bucket k (valid for dense key spaces):
  // keeps a restricted "hot" key range contiguous in memory, as in the
  // paper's LLC-resident hot-set experiments (Fig 2a / 6b).
  PsHashTable(MemRegion& region, HashLayout layout, size_t buckets,
              size_t max_keys, bool identity_hash = false);

  // Bytes of region needed for a table with `buckets` slots.
  static size_t RegionBytes(HashLayout layout, size_t buckets, size_t max_keys);

  // Inserts `key` with `value`; returns false when full.
  bool Insert(sim::CpuContext* cpu, uint64_t key, uint64_t value);
  // Inserts keys 0..n-1, each with value = key, charging no CPU (the
  // unmeasured build). An empty identity-hashed open-addressing table with
  // n <= buckets is written a page at a time, which leaves the same bytes and
  // paging state as n Inserts (DESIGN.md §15); any other table takes Insert.
  void Fill(uint64_t n);
  // In-place update (the parameter-server op). Returns false if absent.
  bool Update(sim::CpuContext* cpu, uint64_t key, uint64_t delta);
  bool Get(sim::CpuContext* cpu, uint64_t key, uint64_t* value);

  size_t buckets() const { return buckets_; }
  size_t keys() const { return num_keys_; }

 private:
  uint64_t Bucket(uint64_t key) const;
  static uint64_t Mix(uint64_t key);
  uint64_t SlotOff(uint64_t index) const { return index * 16; }
  uint64_t HeadOff(uint64_t index) const { return index * 8; }
  uint64_t NodeOff(uint64_t index) const {
    return buckets_ * 8 + index * 24;
  }

  MemRegion* region_;
  HashLayout layout_;
  size_t buckets_;  // power of two
  size_t max_keys_;
  size_t num_keys_ = 0;
  bool identity_hash_;
};

// What runs around the table.
enum class PsExecMode {
  kNativeUntrusted,  // no enclave: plain syscalls
  kSgxOcall,         // in-enclave, SDK OCALL per network exchange
  kSgxRpc,           // in-enclave, Eleos exit-less RPC
  kSgxRpcCat,        // + LLC partitioning
};

enum class PsBackend { kUntrusted, kEnclave, kSuvm };

struct PsConfig {
  size_t data_bytes = 2 << 20;  // table region size
  HashLayout layout = HashLayout::kOpenAddressing;
  PsBackend backend = PsBackend::kUntrusted;
  PsExecMode mode = PsExecMode::kNativeUntrusted;
  suvm::SuvmConfig suvm;  // used when backend == kSuvm
  uint64_t crypto_seed = 77;
  // In-flight client connections at saturation; sizes the kernel's recycled
  // I/O buffer pool (LLC pollution scales with it).
  size_t simulated_connections = 2048;
  // Identity-hash the table so restricted hot key ranges stay contiguous
  // (LLC-resident), as in the paper's hot-set experiments.
  bool cluster_hot_keys = false;
};

// Pre-generated encrypted request stream (the "separate load-generator
// machine"); requests are CPU-free for the server until decryption.
class PsLoadGenerator {
 public:
  // hot_keys == 0 -> uniform over all keys; otherwise restrict to the first
  // `hot_keys` keys (Fig 2a's "hot" working set).
  PsLoadGenerator(size_t num_keys, size_t hot_keys, size_t updates_per_request,
                  uint64_t seed, uint64_t crypto_seed);

  size_t request_bytes() const { return 16 + updates_per_request_ * 16; }

  // Serializes encrypted request `i` into buf (>= request_bytes()).
  void MakeRequest(uint64_t i, uint8_t* buf);

 private:
  size_t num_keys_;
  size_t hot_keys_;
  size_t updates_per_request_;
  uint64_t seed_;
  crypto::Aes128 aes_;
};

class ParamServer {
 public:
  ParamServer(sim::Machine& machine, PsConfig config);
  ~ParamServer();

  // Builds the table: inserts keys 0..num_keys-1 (unmeasured).
  void Populate();

  // Handles one encrypted request off the wire. Performs the mode-specific
  // network exchange, decrypts, applies the updates, encrypts the reply.
  void HandleRequest(sim::CpuContext* cpu, const uint8_t* wire, size_t len);

  // Enter/exit the enclave around a serving session (no-ops in native mode).
  void EnterServing(sim::CpuContext& cpu);
  void ExitServing(sim::CpuContext& cpu);

  size_t num_keys() const { return table_->keys(); }
  PsHashTable& table() { return *table_; }
  MemRegion& region() { return *region_; }
  uint64_t handler_cycles() const { return handler_cycles_; }
  uint64_t requests_served() const { return requests_served_; }
  suvm::Suvm* suvm() { return suvm_.get(); }
  sim::Enclave* enclave() { return enclave_.get(); }

 private:
  void NetExchange(sim::CpuContext* cpu, size_t recv_bytes, size_t send_bytes);

  sim::Machine* machine_;
  PsConfig config_;
  std::unique_ptr<sim::Enclave> enclave_;
  std::unique_ptr<suvm::Suvm> suvm_;
  std::unique_ptr<MemRegion> region_;
  std::unique_ptr<PsHashTable> table_;
  std::unique_ptr<rpc::RpcManager> rpc_;
  crypto::Aes128 aes_;
  uint64_t handler_cycles_ = 0;
  uint64_t requests_served_ = 0;
};

// Convenience: run `n_requests` against a fresh server; returns cycles.
struct PsRunResult {
  uint64_t total_cycles = 0;    // end-to-end server cycles
  uint64_t handler_cycles = 0;  // in-enclave handler segment only
  uint64_t requests = 0;
  double CyclesPerRequest() const {
    return requests ? static_cast<double>(total_cycles) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

PsRunResult RunPsWorkload(sim::Machine& machine, const PsConfig& config,
                          size_t updates_per_request, size_t hot_keys,
                          size_t n_requests, uint64_t seed = 1);

}  // namespace eleos::apps

#endif  // ELEOS_SRC_APPS_PARAM_SERVER_H_
