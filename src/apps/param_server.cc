// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/apps/param_server.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256.h"

namespace eleos::apps {
namespace {

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

constexpr uint64_t kAckBytes = 16;

}  // namespace

// --- PsHashTable ---

PsHashTable::PsHashTable(MemRegion& region, HashLayout layout, size_t buckets,
                         size_t max_keys, bool identity_hash)
    : region_(&region),
      layout_(layout),
      buckets_(NextPow2(buckets)),
      max_keys_(max_keys),
      identity_hash_(identity_hash) {
  if (region.size() < RegionBytes(layout, buckets_, max_keys)) {
    throw std::invalid_argument("PsHashTable: region too small");
  }
}

size_t PsHashTable::RegionBytes(HashLayout layout, size_t buckets,
                                size_t max_keys) {
  const size_t b = NextPow2(buckets);
  if (layout == HashLayout::kOpenAddressing) {
    return b * 16;
  }
  return b * 8 + max_keys * 24;
}

uint64_t PsHashTable::Bucket(uint64_t key) const {
  return (identity_hash_ ? key : Mix(key)) & (buckets_ - 1);
}

uint64_t PsHashTable::Mix(uint64_t key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool PsHashTable::Insert(sim::CpuContext* cpu, uint64_t key, uint64_t value) {
  const uint64_t mask = buckets_ - 1;
  if (layout_ == HashLayout::kOpenAddressing) {
    uint64_t index = Bucket(key);
    for (size_t probe = 0; probe < buckets_; ++probe) {
      const uint64_t stored = region_->Load<uint64_t>(cpu, SlotOff(index));
      if (stored == 0) {
        const uint64_t pair[2] = {key + 1, value};
        region_->Write(cpu, SlotOff(index), pair, sizeof(pair));
        ++num_keys_;
        return true;
      }
      if (stored == key + 1) {
        region_->Store<uint64_t>(cpu, SlotOff(index) + 8, value);
        return true;
      }
      index = (index + 1) & mask;
    }
    return false;
  }

  // Chaining: push a new node at the head of the bucket's list.
  if (num_keys_ >= max_keys_) {
    return false;
  }
  const uint64_t bucket = Bucket(key);
  const uint64_t head = region_->Load<uint64_t>(cpu, HeadOff(bucket));
  const uint64_t node = num_keys_++;
  const uint64_t rec[3] = {key, value, head};  // next = old head (index+1, 0=end)
  region_->Write(cpu, NodeOff(node), rec, sizeof(rec));
  region_->Store<uint64_t>(cpu, HeadOff(bucket), node + 1);
  return true;
}

void PsHashTable::Fill(uint64_t n) {
  if (layout_ != HashLayout::kOpenAddressing || !identity_hash_ ||
      num_keys_ != 0 || n > buckets_) {
    for (uint64_t key = 0; key < n; ++key) {
      Insert(nullptr, key, key);
    }
    return;
  }
  // Key k lands in slot k as {k+1, k}: one Write per page, ascending, as
  // the per-key path first touches the pages.
  constexpr uint64_t kSlotsPerPage = sim::kPageSize / 16;
  uint64_t page[2 * kSlotsPerPage] = {};
  for (uint64_t first = 0; first < n; first += kSlotsPerPage) {
    const uint64_t count = std::min(kSlotsPerPage, n - first);
    for (uint64_t i = 0; i < count; ++i) {
      page[2 * i] = first + i + 1;
      page[2 * i + 1] = first + i;
    }
    region_->Write(nullptr, SlotOff(first), page, count * 16);
  }
  num_keys_ = n;
}

bool PsHashTable::Update(sim::CpuContext* cpu, uint64_t key, uint64_t delta) {
  const uint64_t mask = buckets_ - 1;
  if (layout_ == HashLayout::kOpenAddressing) {
    uint64_t index = Bucket(key);
    for (size_t probe = 0; probe < buckets_; ++probe) {
      const uint64_t stored = region_->Load<uint64_t>(cpu, SlotOff(index));
      if (stored == key + 1) {
        const uint64_t v = region_->Load<uint64_t>(cpu, SlotOff(index) + 8);
        region_->Store<uint64_t>(cpu, SlotOff(index) + 8, v + delta);
        return true;
      }
      if (stored == 0) {
        return false;
      }
      index = (index + 1) & mask;
    }
    return false;
  }

  uint64_t next = region_->Load<uint64_t>(cpu, HeadOff(Bucket(key)));
  while (next != 0) {
    const uint64_t node = next - 1;
    uint64_t rec[3];
    region_->Read(cpu, NodeOff(node), rec, sizeof(rec));
    if (rec[0] == key) {
      region_->Store<uint64_t>(cpu, NodeOff(node) + 8, rec[1] + delta);
      return true;
    }
    next = rec[2];
  }
  return false;
}

bool PsHashTable::Get(sim::CpuContext* cpu, uint64_t key, uint64_t* value) {
  const uint64_t mask = buckets_ - 1;
  if (layout_ == HashLayout::kOpenAddressing) {
    uint64_t index = Bucket(key);
    for (size_t probe = 0; probe < buckets_; ++probe) {
      const uint64_t stored = region_->Load<uint64_t>(cpu, SlotOff(index));
      if (stored == key + 1) {
        *value = region_->Load<uint64_t>(cpu, SlotOff(index) + 8);
        return true;
      }
      if (stored == 0) {
        return false;
      }
      index = (index + 1) & mask;
    }
    return false;
  }

  uint64_t next = region_->Load<uint64_t>(cpu, HeadOff(Bucket(key)));
  while (next != 0) {
    const uint64_t node = next - 1;
    uint64_t rec[3];
    region_->Read(cpu, NodeOff(node), rec, sizeof(rec));
    if (rec[0] == key) {
      *value = rec[1];
      return true;
    }
    next = rec[2];
  }
  return false;
}

// --- PsLoadGenerator ---

PsLoadGenerator::PsLoadGenerator(size_t num_keys, size_t hot_keys,
                                 size_t updates_per_request, uint64_t seed,
                                 uint64_t crypto_seed)
    : num_keys_(num_keys),
      hot_keys_(hot_keys == 0 ? num_keys : hot_keys),
      updates_per_request_(updates_per_request),
      seed_(seed),
      aes_(crypto::DeriveAesKey("ps-session", crypto_seed).data()) {}

void PsLoadGenerator::MakeRequest(uint64_t i, uint8_t* buf) {
  // Wire: [12B IV][4B count][count x {8B key, 8B delta}] (payload encrypted).
  Xoshiro256 rng(seed_ ^ (i * 0x9e3779b97f4a7c15ULL + 1));
  uint8_t iv[12];
  rng.FillBytes(iv, sizeof(iv));
  std::memcpy(buf, iv, 12);
  const uint32_t n = static_cast<uint32_t>(updates_per_request_);
  std::memcpy(buf + 12, &n, 4);
  std::vector<uint64_t> payload(2 * updates_per_request_);
  for (size_t u = 0; u < updates_per_request_; ++u) {
    payload[2 * u] = rng.NextBelow(hot_keys_);
    payload[2 * u + 1] = rng.Next() % 1000;
  }
  crypto::AesCtrCrypt(aes_, iv, 1,
                      reinterpret_cast<const uint8_t*>(payload.data()),
                      buf + 16, payload.size() * 8);
}

// --- ParamServer ---

ParamServer::ParamServer(sim::Machine& machine, PsConfig config)
    : machine_(&machine),
      config_(config),
      aes_(crypto::DeriveAesKey("ps-session", config.crypto_seed).data()) {
  const bool needs_enclave = config.mode != PsExecMode::kNativeUntrusted ||
                             config.backend != PsBackend::kUntrusted;
  if (needs_enclave) {
    enclave_ = std::make_unique<sim::Enclave>(machine, "param-server");
  }

  switch (config.backend) {
    case PsBackend::kUntrusted:
      region_ = std::make_unique<UntrustedRegion>(machine, config.data_bytes);
      break;
    case PsBackend::kEnclave:
      region_ = std::make_unique<EnclaveRegion>(*enclave_, config.data_bytes);
      break;
    case PsBackend::kSuvm: {
      suvm::SuvmConfig sc = config.suvm;
      if (sc.backing_bytes < 2 * config.data_bytes) {
        sc.backing_bytes = NextPow2(2 * config.data_bytes);
      }
      suvm_ = std::make_unique<suvm::Suvm>(*enclave_, sc);
      region_ = std::make_unique<SuvmRegion>(*suvm_, config.data_bytes);
      break;
    }
  }

  // The table fills the whole region: `data_bytes` of server state.
  size_t buckets;
  size_t max_keys;
  if (config.layout == HashLayout::kOpenAddressing) {
    buckets = config.data_bytes / 16;
    max_keys = buckets / 2;
  } else {
    // heads (8B) + nodes (24B): solve 8b + 24*(b/2) = data_bytes.
    buckets = config.data_bytes / 20;
    max_keys = buckets / 2;
  }
  buckets = NextPow2(buckets) / 2 * 2;  // NextPow2 may round the region over
  while (PsHashTable::RegionBytes(config.layout, buckets, max_keys) >
         config.data_bytes) {
    buckets /= 2;
    max_keys = buckets / 2;
  }
  table_ = std::make_unique<PsHashTable>(*region_, config.layout, buckets,
                                         max_keys, config.cluster_hot_keys);

  if (config.mode == PsExecMode::kSgxRpc || config.mode == PsExecMode::kSgxRpcCat) {
    rpc_ = std::make_unique<rpc::RpcManager>(
        *enclave_, rpc::RpcManager::Options{
                       .mode = rpc::RpcManager::Mode::kInline,
                       .use_cat = config.mode == PsExecMode::kSgxRpcCat,
                   });
  }
}

ParamServer::~ParamServer() {
  region_.reset();  // SuvmRegion must die before suvm_
  rpc_.reset();     // and the RPC manager before the enclave
  suvm_.reset();
}

void ParamServer::Populate() { table_->Fill(table_->buckets() / 2); }

void ParamServer::EnterServing(sim::CpuContext& cpu) {
  if (enclave_ != nullptr) {
    enclave_->Enter(cpu);
    if (rpc_ != nullptr) {
      cpu.cos = rpc_->enclave_cos();
    }
  }
}

void ParamServer::ExitServing(sim::CpuContext& cpu) {
  if (enclave_ != nullptr) {
    enclave_->Exit(cpu);
    cpu.cos = sim::kCosShared;
  }
}

void ParamServer::NetExchange(sim::CpuContext* cpu, size_t recv_bytes,
                              size_t send_bytes) {
  const sim::CostModel& c = machine_->costs();
  const size_t payload = recv_bytes + send_bytes;
  const size_t io = payload + c.syscall_kernel_footprint;
  // At saturation the kernel keeps per-connection buffers for every in-flight
  // client (socket metadata + a few in-flight requests' payloads); the
  // recycled-buffer pool the syscall traffic cycles through therefore scales
  // with the request size — this is what makes larger requests pollute more
  // of the LLC (Figure 2a / 6b).
  const size_t pool = config_.simulated_connections * (1024 + 8 * payload);
  switch (config_.mode) {
    case PsExecMode::kNativeUntrusted:
      if (cpu != nullptr) {
        cpu->Charge(c.syscall_cycles);
        machine_->TouchScratch(cpu, io, pool);
      }
      break;
    case PsExecMode::kSgxOcall:
      enclave_->Ocall(*cpu, 0, [&] { machine_->TouchScratch(cpu, io, pool); });
      break;
    case PsExecMode::kSgxRpc:
    case PsExecMode::kSgxRpcCat:
      rpc_->Call(cpu, 0, [] {});
      machine_->PolluteCache(io, rpc_->worker_cos(), pool);
      break;
  }
}

void ParamServer::HandleRequest(sim::CpuContext* cpu, const uint8_t* wire,
                                size_t len) {
  // Network exchange: reply to the previous request, receive this one.
  NetExchange(cpu, len, kAckBytes);

  const uint64_t handler_start = cpu != nullptr ? cpu->clock.now() : 0;

  // Decrypt the payload (in-enclave AES-CTR).
  uint8_t iv[12];
  std::memcpy(iv, wire, 12);
  uint32_t n = 0;
  std::memcpy(&n, wire + 12, 4);
  std::vector<uint64_t> payload(2 * n);
  crypto::AesCtrCrypt(aes_, iv, 1, wire + 16,
                      reinterpret_cast<uint8_t*>(payload.data()), 16 * n);
  if (enclave_ != nullptr) {
    enclave_->ChargeCtr(cpu, 16 * n);
  } else if (cpu != nullptr) {
    cpu->Charge(static_cast<uint64_t>(machine_->costs().aes_ctr_cycles_per_byte *
                                      16.0 * n));
  }

  // Apply the updates.
  for (uint32_t u = 0; u < n; ++u) {
    table_->Update(cpu, payload[2 * u], payload[2 * u + 1]);
  }

  // Encrypt the (tiny) acknowledgement.
  if (enclave_ != nullptr) {
    enclave_->ChargeCtr(cpu, kAckBytes);
  }

  if (cpu != nullptr) {
    handler_cycles_ += cpu->clock.now() - handler_start;
  }
  ++requests_served_;
}

// --- Harness ---

PsRunResult RunPsWorkload(sim::Machine& machine, const PsConfig& config,
                          size_t updates_per_request, size_t hot_keys,
                          size_t n_requests, uint64_t seed) {
  ParamServer server(machine, config);
  server.Populate();
  PsLoadGenerator gen(server.num_keys(), hot_keys, updates_per_request, seed,
                      config.crypto_seed);

  sim::CpuContext& cpu = machine.cpu(0);
  std::vector<uint8_t> wire(gen.request_bytes());

  // Warm-up (the paper discards the first runs).
  server.EnterServing(cpu);
  for (uint64_t i = 0; i < n_requests / 10 + 1; ++i) {
    gen.MakeRequest(i, wire.data());
    server.HandleRequest(&cpu, wire.data(), wire.size());
  }

  const uint64_t t0 = cpu.clock.now();
  const uint64_t h0 = server.handler_cycles();
  for (uint64_t i = 0; i < n_requests; ++i) {
    gen.MakeRequest(i + 1000000, wire.data());
    server.HandleRequest(&cpu, wire.data(), wire.size());
  }
  PsRunResult result;
  result.total_cycles = cpu.clock.now() - t0;
  result.handler_cycles = server.handler_cycles() - h0;
  result.requests = n_requests;
  server.ExitServing(cpu);
  return result;
}

}  // namespace eleos::apps
