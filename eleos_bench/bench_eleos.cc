// Copyright (c) Eleos reproduction authors. MIT license.
//
// bench_eleos: the end-to-end benchmark of the Eleos configuration
// (exit-less RPC + CAT + SUVM) on four of the paper's applications, sealing
// with real AES-GCM. One process runs one workload:
//
//   bench_eleos --workload kv_get --seed 1 --seconds 4
//               [--trace] [--setup-only] [--smoke] [--folded FILE]
//
// and prints one JSON object as the last line of its standard output.
// run.py drives it; README.md describes the workloads and metrics.
//
// A run has three phases:
//   setup   build the machine, fill the application's state (functional
//           accesses, no CPU charged), then warm up with charged requests
//           until EPC++ has turned over twice (2 x epc_pp_pages major
//           faults), or for a fixed count when the working set fits EPC++.
//           setup_s is the wall time from process start to the end of it.
//   window  every CPU clock is advanced to the machine maximum, then a fixed
//           number of requests runs. The virtual (sim_*) and per-layer
//           numbers come from this window only, so they depend on the seed
//           and not on host speed. --trace records spans and layer timers
//           here.
//   rest    untraced requests continue until --seconds of wall time have
//           passed since the window began. sim.host_kops is the median
//           rate over fixed-size chunks of untraced requests.
// With --setup-only a process stops after setup: run.py takes the median
// set-up time over several processes.
//
// Load is a closed loop driven by this one OS thread: each simulated CPU is
// one server thread, and the next request goes to the CPU with the lowest
// virtual clock, so a CPU stalled on the paging gate receives less work.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/faceverif.h"
#include "src/apps/kvcache.h"
#include "src/apps/mem_region.h"
#include "src/apps/param_server.h"
#include "src/common/rng.h"
#include "src/crypto/gcm.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/enclave.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"

namespace eleos::bench {
namespace {

using WallClock = std::chrono::steady_clock;

// Taken during static initialisation, before main: where setup_s starts.
const WallClock::time_point kProcessStart = WallClock::now();

uint64_t NanosSince(WallClock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                           t0)
          .count());
}

double SecondsSince(WallClock::time_point t0) {
  return static_cast<double>(NanosSince(t0)) * 1e-9;
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "bench_eleos: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);  // worker threads may still run; skip static teardown
}

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// --- Workload sizes ---------------------------------------------------------

// Full sizes follow the paper's setups: the default 60 MiB EPC++ with
// working sets about 4x over it. Smoke sizes keep each workload's shape
// (the same over-commit ratio) at a few MiB.
struct Sizes {
  size_t epc_pp_bytes = 60ull << 20;
  size_t data_bytes = 0;   // KV payload, or the parameter-server table
  size_t value_bytes = 0;  // KV value size
  size_t people = 0;       // face-verification database entries
  size_t queries = 0;      // pre-rendered query images
  uint64_t window = 0;     // requests in the measured window
  uint64_t chunk = 0;      // requests per host-rate sample
};

// --- Layer boundaries -------------------------------------------------------

// Wall time and virtual cycles spent inside one layer's calls.
struct LayerClock {
  uint64_t host_ns = 0;
  uint64_t cycles = 0;
  uint64_t calls = 0;
};

// The layer boundaries the benchmark can see from outside the library. The
// clocks run only while `on` (the traced window).
struct Layers {
  bool on = false;
  LayerClock request;  // bench.request: one whole request
  LayerClock rpc;      // bench.rpc: the request's exit-less receive call
  LayerClock region;   // bench.region: every app access to its SUVM region
  LayerClock lbp;      // bench.lbp: the face-verification LBP histogram
};

// Opens span `name` (a no-op unless the machine's tracer is enabled) and,
// while the layer clocks run, adds the scope's wall time and `cpu`'s cycles
// to `clock`.
class LayerScope {
 public:
  LayerScope(const Layers& layers, LayerClock& clock, sim::Machine& machine,
             sim::CpuContext* cpu, const char* name)
      : clock_(layers.on && cpu != nullptr ? &clock : nullptr),
        cpu_(cpu),
        span_(&machine.metrics().spans(), cpu, name) {
    if (clock_ != nullptr) {
      cycles0_ = cpu_->clock.now();
      t0_ = WallClock::now();
    }
  }
  ~LayerScope() {
    if (clock_ != nullptr) {
      clock_->host_ns += NanosSince(t0_);
      clock_->cycles += cpu_->clock.now() - cycles0_;
      ++clock_->calls;
    }
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerClock* clock_;
  sim::CpuContext* cpu_;
  sim::SpanScope span_;
  uint64_t cycles0_ = 0;
  WallClock::time_point t0_{};
};

// Passes every access of an application to its SUVM region through the
// bench.region boundary.
class LayerRegion : public apps::MemRegion {
 public:
  LayerRegion(sim::Machine& machine, apps::MemRegion& inner, Layers& layers)
      : machine_(&machine), inner_(&inner), layers_(&layers) {}

  void Read(sim::CpuContext* cpu, uint64_t off, void* dst, size_t n) override {
    LayerScope scope(*layers_, layers_->region, *machine_, cpu, "bench.region");
    inner_->Read(cpu, off, dst, n);
  }
  void Write(sim::CpuContext* cpu, uint64_t off, const void* src,
             size_t n) override {
    LayerScope scope(*layers_, layers_->region, *machine_, cpu, "bench.region");
    inner_->Write(cpu, off, src, n);
  }
  Status TryRead(sim::CpuContext* cpu, uint64_t off, void* dst,
                 size_t n) override {
    LayerScope scope(*layers_, layers_->region, *machine_, cpu, "bench.region");
    return inner_->TryRead(cpu, off, dst, n);
  }
  Status TryWrite(sim::CpuContext* cpu, uint64_t off, const void* src,
                  size_t n) override {
    LayerScope scope(*layers_, layers_->region, *machine_, cpu, "bench.region");
    return inner_->TryWrite(cpu, off, src, n);
  }
  size_t size() const override { return inner_->size(); }

 private:
  sim::Machine* machine_;
  apps::MemRegion* inner_;
  Layers* layers_;
};

// --- Workloads --------------------------------------------------------------

class Workload {
 public:
  explicit Workload(size_t cpus) : cpus_(cpus) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  sim::Machine& machine() { return machine_; }
  size_t cpus() const { return cpus_; }
  Layers& layers() { return layers_; }

  virtual suvm::Suvm& suvm() = 0;
  // The RPC manager when the benchmark owns it; ParamServer keeps its own.
  virtual rpc::RpcManager* rpc() { return nullptr; }
  // Puts a server thread inside the enclave with the enclave's CAT class.
  virtual void EnterCpu(sim::CpuContext& cpu) = 0;
  // Warm-up length when the working set fits EPC++, which then never turns
  // over; 0 selects the turnover rule.
  virtual uint64_t fixed_warmup() const { return 0; }
  // Serves the next request of the seeded stream on `cpu`. False when the
  // output was wrong or the request failed.
  virtual bool Serve(sim::CpuContext& cpu) = 0;
  // Workload-specific observations printed beside the metrics.
  virtual std::string Notes() const { return ""; }

 protected:
  // First member, so it outlives everything the derived classes build on
  // it. The default MachineConfig seals with real AES-GCM.
  sim::Machine machine_;
  Layers layers_;
  size_t cpus_;
};

// Runs `make` with the calling thread confined to all allowed CPUs but one,
// so the threads it starts inherit that set, then moves the calling thread
// onto the CPU kept back. The RPC worker then never shares a core with the
// driving thread, as in the paper, where untrusted workers have their own
// cores; left to the scheduler, the pair sometimes shared one and the host
// rate of the whole run dropped by a third.
template <typename Make>
auto WithWorkersApart(Make make) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return make();
  }
  int own = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      own = c;
    }
  }
  cpu_set_t others = allowed;
  CPU_CLR(own, &others);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(own, &mine);
  sched_setaffinity(0, sizeof(others), &others);
  auto made = make();
  sched_setaffinity(0, sizeof(mine), &mine);
  return made;
}

// The backing store is the next power of two over twice the region, the
// rule ParamServer applies to its own.
suvm::SuvmConfig SuvmFor(const Sizes& s, size_t region_bytes) {
  suvm::SuvmConfig sc;
  sc.epc_pp_pages = s.epc_pp_bytes / sim::kPageSize;
  sc.backing_bytes = NextPow2(2 * region_bytes);
  return sc;
}

// A server the benchmark assembles from library parts: an enclave, a SUVM
// region behind the bench.region boundary, and an RPC manager with CAT.
class EnclaveApp : public Workload {
 public:
  suvm::Suvm& suvm() override { return *suvm_; }
  rpc::RpcManager* rpc() override { return rpc_.get(); }
  void EnterCpu(sim::CpuContext& cpu) override {
    enclave_->Enter(cpu);
    cpu.cos = rpc_->enclave_cos();
  }

 protected:
  EnclaveApp(size_t cpus, const char* name, const Sizes& s,
             size_t region_bytes, rpc::RpcManager::Mode rpc_mode)
      : Workload(cpus),
        enclave_(std::make_unique<sim::Enclave>(machine_, name)),
        suvm_(std::make_unique<suvm::Suvm>(*enclave_,
                                           SuvmFor(s, region_bytes))),
        suvm_region_(std::make_unique<apps::SuvmRegion>(*suvm_, region_bytes)),
        region_(std::make_unique<LayerRegion>(machine_, *suvm_region_,
                                              layers_)) {
    const auto make_rpc = [&] {
      return std::make_unique<rpc::RpcManager>(
          *enclave_,
          rpc::RpcManager::Options{.mode = rpc_mode, .use_cat = true});
    };
    rpc_ = rpc_mode == rpc::RpcManager::Mode::kThreaded
               ? WithWorkersApart(make_rpc)
               : make_rpc();
  }

  // The request's receive: one exit-less call whose I/O buffers touch
  // `bytes`.
  void Receive(sim::CpuContext& cpu, size_t bytes) {
    LayerScope scope(layers_, layers_.rpc, machine_, &cpu, "bench.rpc");
    rpc_->Call(&cpu, bytes, [] {});
  }

  // In construction order, so each is destroyed before what it uses; the
  // RPC manager joins its worker threads while the enclave still lives.
  std::unique_ptr<sim::Enclave> enclave_;
  std::unique_ptr<suvm::Suvm> suvm_;
  std::unique_ptr<apps::SuvmRegion> suvm_region_;
  std::unique_ptr<LayerRegion> region_;
  std::unique_ptr<rpc::RpcManager> rpc_;
};

// --- KvCache (memcached) ----------------------------------------------------

constexpr size_t kKeyLen = 20;

std::string KeyFor(uint64_t i) {
  char buf[kKeyLen + 1];
  std::snprintf(buf, sizeof(buf), "key-%016llu",
                static_cast<unsigned long long>(i));
  return std::string(buf, kKeyLen);
}

// A value's bytes are a function of its key and version, so every read can
// be checked against the client's version shadow.
void FillValue(uint64_t key, uint64_t version, uint8_t* out, size_t len) {
  SplitMix64 mix((key << 20) ^ version);
  for (size_t off = 0; off < len; off += 8) {
    const uint64_t word = mix.Next();
    std::memcpy(out + off, &word, std::min<size_t>(8, len - off));
  }
}

// Pool for `keys` KV records of `value_bytes`: whole 1 MiB slabs of their
// chunk class, plus one spare slab so an overwrite can allocate before it
// frees.
size_t KvPoolBytes(uint64_t keys, size_t value_bytes) {
  apps::SlabAllocator probe(apps::SlabAllocator::kSlabBytes);
  const size_t chunk = probe.ChunkSize(probe.ClassFor(8 + kKeyLen + value_bytes));
  const size_t per_slab = apps::SlabAllocator::kSlabBytes / chunk;
  return ((keys + per_slab - 1) / per_slab + 1) * apps::SlabAllocator::kSlabBytes;
}

class KvWorkload : public EnclaveApp {
 public:
  KvWorkload(const Sizes& s, uint64_t seed, size_t cpus,
             rpc::RpcManager::Mode rpc_mode, bool rpc_for_responses)
      : EnclaveApp(cpus, "kvcache", s,
                   KvPoolBytes(s.data_bytes / s.value_bytes, s.value_bytes),
                   rpc_mode),
        keys_(s.data_bytes / s.value_bytes),
        value_bytes_(s.value_bytes),
        rng_(seed),
        versions_(keys_, 0),
        expect_(s.value_bytes) {
    apps::KvCache::Options opts;
    opts.pool_bytes = region_->size();
    opts.hash_buckets = NextPow2(keys_);
    opts.rpc = rpc_for_responses ? rpc_.get() : nullptr;
    cache_ = std::make_unique<apps::KvCache>(machine_, *region_, opts);

    std::vector<uint8_t> value(value_bytes_);
    for (uint64_t k = 0; k < keys_; ++k) {
      FillValue(k, 0, value.data(), value.size());
      if (!cache_->Set(nullptr, KeyFor(k), value.data(), value.size())) {
        Fatal("KvCache fill failed at key " + std::to_string(k));
      }
    }
  }

 protected:
  // True iff `value` holds `len` bytes of key `k` at its shadow version.
  bool Matches(uint64_t k, const uint8_t* value, size_t len) {
    if (len != value_bytes_) {
      return false;
    }
    FillValue(k, versions_[k], expect_.data(), expect_.size());
    return std::memcmp(value, expect_.data(), len) == 0;
  }

  uint64_t keys_;
  size_t value_bytes_;
  Xoshiro256 rng_;
  std::vector<uint32_t> versions_;  // client-side shadow, one per key
  std::vector<uint8_t> expect_;
  std::unique_ptr<apps::KvCache> cache_;
};

// kv_get: uniform GETs of 1 KiB values over a data set 4x EPC++, 4 CPUs.
class KvGet : public KvWorkload {
 public:
  KvGet(const Sizes& s, uint64_t seed)
      : KvWorkload(s, seed, /*cpus=*/4, rpc::RpcManager::Mode::kInline,
                   /*rpc_for_responses=*/false),
        out_(s.value_bytes + 64) {}

  bool Serve(sim::CpuContext& cpu) override {
    const uint64_t k = rng_.NextBelow(keys_);
    const size_t io = 64 + value_bytes_;  // request in, value out
    Receive(cpu, io);
    enclave_->ChargeCtr(&cpu, io);  // decrypt the key, encrypt the value
    const int64_t got = cache_->Get(&cpu, KeyFor(k), out_.data(), out_.size());
    return got >= 0 && Matches(k, out_.data(), static_cast<size_t>(got));
  }

 private:
  std::vector<uint8_t> out_;
};

// kv_multi_rw: 90% MultiGet(8) / 10% MultiSet(8) of 64 B values that fit
// EPC++, 1 CPU, with a real RPC worker thread.
class KvMultiRw : public KvWorkload {
 public:
  static constexpr size_t kBatch = 8;

  KvMultiRw(const Sizes& s, uint64_t seed)
      : KvWorkload(s, seed, /*cpus=*/1, rpc::RpcManager::Mode::kThreaded,
                   /*rpc_for_responses=*/true),
        ids_(kBatch),
        keys_batch_(kBatch),
        pairs_(kBatch),
        value_(s.value_bytes) {}

  uint64_t fixed_warmup() const override { return 2000; }

  bool Serve(sim::CpuContext& cpu) override {
    const bool is_set = rng_.NextBelow(10) == 0;
    for (size_t j = 0; j < kBatch; ++j) {
      ids_[j] = rng_.NextBelow(keys_);
      keys_batch_[j] = KeyFor(ids_[j]);
    }
    Receive(cpu, 64 + kBatch * (kKeyLen + 8));
    if (!is_set) {
      if (cache_->MultiGet(&cpu, keys_batch_, &values_) != kBatch) {
        return false;
      }
      for (size_t j = 0; j < kBatch; ++j) {
        if (!Matches(ids_[j], values_[j].data(), values_[j].size())) {
          return false;
        }
      }
      return true;
    }
    // Sets apply in order, so a key repeated in the batch ends at its last
    // version, as the shadow does.
    for (size_t j = 0; j < kBatch; ++j) {
      FillValue(ids_[j], ++versions_[ids_[j]], value_.data(), value_.size());
      pairs_[j].first = keys_batch_[j];
      pairs_[j].second.assign(value_.begin(), value_.end());
    }
    return cache_->MultiSet(&cpu, pairs_) == kBatch;
  }

 private:
  std::vector<uint64_t> ids_;
  std::vector<std::string> keys_batch_;
  std::vector<std::vector<uint8_t>> values_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::vector<uint8_t> value_;
};

// --- Parameter server (Fig 1) -----------------------------------------------

// ps_update: one in-place update per request on an identity-hashed table 2x
// the touched set, which is 4x EPC++; 1 CPU.
class PsUpdate : public Workload {
 public:
  PsUpdate(const Sizes& s, uint64_t seed)
      : Workload(/*cpus=*/1), server_(machine_, ConfigFor(s)) {
    server_.Populate();
    gen_ = std::make_unique<apps::PsLoadGenerator>(
        server_.num_keys(), /*hot_keys=*/0, /*updates_per_request=*/1, seed,
        apps::PsConfig{}.crypto_seed);
    wire_.resize(gen_->request_bytes());
  }

  suvm::Suvm& suvm() override { return *server_.suvm(); }
  void EnterCpu(sim::CpuContext& cpu) override { server_.EnterServing(cpu); }

  bool Serve(sim::CpuContext& cpu) override {
    gen_->MakeRequest(next_++, wire_.data());
    // Request payloads are encrypted end to end, so the values cannot be
    // checked here; a failed region access throws.
    try {
      server_.HandleRequest(&cpu, wire_.data(), wire_.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_eleos: ps_update request failed: %s\n",
                   e.what());
      return false;
    }
    return true;
  }

 private:
  static apps::PsConfig ConfigFor(const Sizes& s) {
    apps::PsConfig cfg;
    cfg.data_bytes = s.data_bytes;
    cfg.layout = apps::HashLayout::kOpenAddressing;
    cfg.backend = apps::PsBackend::kSuvm;
    cfg.mode = apps::PsExecMode::kSgxRpcCat;
    cfg.suvm = SuvmFor(s, /*backing_bytes=*/1);  // raised to fit the table
    // Identity hashing keeps the populate sequential; with mixed hashing
    // every insert of the fill would be a random page-in.
    cfg.cluster_hot_keys = true;
    return cfg;
  }

  apps::ParamServer server_;
  std::unique_ptr<apps::PsLoadGenerator> gen_;
  std::vector<uint8_t> wire_;
  uint64_t next_ = 0;
};

// --- Face verification (Fig 10) ---------------------------------------------

// The wire image is the paper's 512x512 grayscale; the server computes LBP
// on its 256x256 copy.
constexpr size_t kWireImageBytes = 512 * 512;

// faceverif: each request fetches one person's 236 KiB histogram (58
// contiguous pages) from a database 4x EPC++; 1 CPU. With two CPUs the
// paging gate makes each fault catch up to the other CPU's horizon, the
// latency splits into modes a gate slice apart, and the median moves 6-15%
// between seeds; kv_get carries the gate instead.
class FaceVerif : public EnclaveApp {
 public:
  FaceVerif(const Sizes& s, uint64_t seed)
      : EnclaveApp(/*cpus=*/1, "faceverif", s,
                   s.people * apps::kHistogramBytes,
                   rpc::RpcManager::Mode::kInline),
        people_(s.people),
        rng_(seed),
        server_(machine_, *region_, s.people) {
    server_.BuildDatabase();

    // Person p is queried with image p mod Q (variant 2 of face p mod Q):
    // genuine iff p < Q. The expected distance of every person is computed
    // here, outside the enclave, so each verdict can be checked exactly.
    const sim::CostModel& costs = machine_.costs();
    std::vector<apps::Histogram> query_hist;
    for (size_t q = 0; q < s.queries; ++q) {
      images_.push_back(apps::SynthesizeFace(q, /*variant=*/2));
      query_hist.push_back(apps::ComputeLbpHistogram(nullptr, costs, images_[q]));
    }
    expected_.reserve(people_);
    for (uint64_t p = 0; p < people_; ++p) {
      const apps::Histogram stored =
          apps::ComputeLbpHistogram(nullptr, costs, apps::SynthesizeFace(p));
      expected_.push_back(
          apps::ChiSquareDistance(stored, query_hist[p % s.queries]));
    }
  }

  bool Serve(sim::CpuContext& cpu) override {
    const uint64_t p = rng_.NextBelow(people_);
    const apps::FaceImage& image = images_[p % images_.size()];
    // Headers only: the image arrives by zero-copy receive.
    Receive(cpu, (kWireImageBytes + 64) / 16);
    enclave_->ChargeCtr(&cpu, kWireImageBytes);  // decrypt the image
    apps::Histogram query;
    {
      LayerScope scope(layers_, layers_.lbp, machine_, &cpu, "bench.lbp");
      query = apps::ComputeLbpHistogram(&cpu, machine_.costs(), image);
    }
    double distance = 0.0;
    const bool accepted = server_.Verify(&cpu, p, query, &distance);
    ++served_;
    // LBP's own accuracy is a property of the algorithm, not of Eleos: a
    // verdict that disagrees with the ground truth but matches the exact
    // reference distance is counted, not failed.
    if (accepted != (p < images_.size())) {
      ++lbp_mismatches_;
    }
    return distance == expected_[p];
  }

  std::string Notes() const override {
    return "\"lbp_mismatches\": " + std::to_string(lbp_mismatches_) +
           ", \"served\": " + std::to_string(served_);
  }

 private:
  size_t people_;
  Xoshiro256 rng_;
  std::vector<apps::FaceImage> images_;
  std::vector<double> expected_;
  uint64_t lbp_mismatches_ = 0;
  uint64_t served_ = 0;
  apps::FaceVerifServer server_;
};

// --- Workload table ---------------------------------------------------------

Sizes SizesFor(const std::string& name, bool smoke) {
  Sizes s;
  if (name == "kv_get") {
    s.value_bytes = 1024;
    s.data_bytes = smoke ? (8ull << 20) : (240ull << 20);
    s.window = smoke ? 2000 : 120000;
  } else if (name == "ps_update") {
    s.data_bytes = smoke ? (16ull << 20) : (512ull << 20);
    s.window = smoke ? 2000 : 50000;
  } else if (name == "faceverif") {
    s.people = smoke ? 36 : 1000;
    s.queries = smoke ? 9 : 256;
    s.window = smoke ? 200 : 2000;
  } else if (name == "kv_multi_rw") {
    s.value_bytes = 64;
    s.data_bytes = smoke ? (1ull << 20) : (16ull << 20);
    s.window = smoke ? 2000 : 100000;
  } else {
    Fatal("unknown workload '" + name + "'");
  }
  if (smoke) {
    s.epc_pp_bytes = 2ull << 20;
  }
  s.chunk = s.window / 20;
  return s;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Sizes& s, uint64_t seed) {
  if (name == "kv_get") {
    return std::make_unique<KvGet>(s, seed);
  }
  if (name == "ps_update") {
    return std::make_unique<PsUpdate>(s, seed);
  }
  if (name == "faceverif") {
    return std::make_unique<FaceVerif>(s, seed);
  }
  return std::make_unique<KvMultiRw>(s, seed);
}

// --- Measurement ------------------------------------------------------------

// Counters read through component accessors and the live sim.cycles.*
// counters (never the publish-time registry mirrors).
struct Counters {
  uint64_t by_cat[telemetry::kNumCostCategories] = {};
  uint64_t clocks = 0;  // sum of the workload's CPU clocks
  uint64_t major = 0, minor = 0, writebacks = 0, clean_drops = 0;
  uint64_t coalesced = 0, gate_wait = 0, integrity = 0;
  uint64_t rpc_calls = 0, rpc_fallbacks = 0;
  uint64_t hw_faults = 0, ipis = 0;
  uint64_t llc_hits = 0, llc_misses = 0, tlb_misses = 0;

  static Counters Take(Workload& w) {
    sim::Machine& m = w.machine();
    Counters c;
    for (size_t i = 0; i < telemetry::kNumCostCategories; ++i) {
      c.by_cat[i] =
          m.metrics()
              .GetCounter(std::string("sim.cycles.") +
                          telemetry::CostCategoryName(
                              static_cast<telemetry::CostCategory>(i)))
              ->value();
    }
    for (size_t i = 0; i < w.cpus(); ++i) {
      c.clocks += m.cpu(i).clock.now();
      c.tlb_misses += m.cpu(i).tlb.misses();
    }
    const suvm::Suvm::Stats& s = w.suvm().stats();
    c.major = s.major_faults.load();
    c.minor = s.minor_faults.load();
    c.writebacks = s.writebacks.load();
    c.clean_drops = s.clean_drops.load();
    c.coalesced = s.fault_coalesced.load();
    c.gate_wait = s.gate_wait_cycles.load();
    c.integrity = s.mac_failures.load() + s.rollbacks_detected.load() +
                  s.pages_quarantined.load() + s.quarantine_hits.load();
    // Every exit-less call records its doorbell's batch size in this live
    // histogram, so its sum counts calls for app-owned managers too.
    c.rpc_calls = m.metrics().GetHistogram("rpc.batch_size")->sum();
    c.rpc_fallbacks = w.rpc() != nullptr ? w.rpc()->fallback_ocalls() : 0;
    c.hw_faults = m.driver().stats().faults;
    c.ipis = m.driver().stats().ipis;
    c.llc_hits = m.llc().hits();
    c.llc_misses = m.llc().misses();
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    for (size_t i = 0; i < telemetry::kNumCostCategories; ++i) {
      d.by_cat[i] = by_cat[i] - o.by_cat[i];
    }
    d.clocks = clocks - o.clocks;
    d.major = major - o.major;
    d.minor = minor - o.minor;
    d.writebacks = writebacks - o.writebacks;
    d.clean_drops = clean_drops - o.clean_drops;
    d.coalesced = coalesced - o.coalesced;
    d.gate_wait = gate_wait - o.gate_wait;
    d.integrity = integrity - o.integrity;
    d.rpc_calls = rpc_calls - o.rpc_calls;
    d.rpc_fallbacks = rpc_fallbacks - o.rpc_fallbacks;
    d.hw_faults = hw_faults - o.hw_faults;
    d.ipis = ipis - o.ipis;
    d.llc_hits = llc_hits - o.llc_hits;
    d.llc_misses = llc_misses - o.llc_misses;
    d.tlb_misses = tlb_misses - o.tlb_misses;
    return d;
  }
};

uint64_t CatCycles(const Counters& c, telemetry::CostCategory cat) {
  return c.by_cat[static_cast<size_t>(cat)];
}

sim::CpuContext& NextCpu(Workload& w) {
  sim::CpuContext* best = &w.machine().cpu(0);
  for (size_t i = 1; i < w.cpus(); ++i) {
    if (w.machine().cpu(i).clock.now() < best->clock.now()) {
      best = &w.machine().cpu(i);
    }
  }
  return *best;
}

bool ServeOne(Workload& w, sim::CpuContext& cpu) {
  Layers& layers = w.layers();
  LayerScope scope(layers, layers.request, w.machine(), &cpu, "bench.request");
  return w.Serve(cpu);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

// Host cost of the real sealing primitive: the median over batches of 4 KiB
// seals (then opens) through crypto::AesGcm.
void CalibrateGcm(double* seal_us, double* open_us) {
  constexpr int kBatches = 15;
  constexpr int kPerBatch = 32;
  uint8_t key[crypto::kAes128KeySize] = {0x42};
  const crypto::AesGcm gcm(key);
  std::vector<uint8_t> plain(sim::kPageSize, 0x5a);
  std::vector<uint8_t> sealed(sim::kPageSize);
  uint8_t nonce[crypto::kGcmNonceSize] = {};
  uint8_t tag[crypto::kGcmTagSize] = {};
  std::vector<double> seals, opens;
  for (int b = 0; b < kBatches; ++b) {
    auto t0 = WallClock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      nonce[0] = static_cast<uint8_t>(i);
      gcm.Seal(nonce, nullptr, 0, plain.data(), plain.size(), sealed.data(),
               tag);
    }
    seals.push_back(static_cast<double>(NanosSince(t0)) / 1e3 / kPerBatch);
    t0 = WallClock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      if (!gcm.Open(nonce, nullptr, 0, sealed.data(), sealed.size(), tag,
                    plain.data())) {
        Fatal("AES-GCM calibration: open rejected its own seal");
      }
    }
    opens.push_back(static_cast<double>(NanosSince(t0)) / 1e3 / kPerBatch);
  }
  *seal_us = Median(seals);
  *open_us = Median(opens);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool is_virtual;  // a function of the seed alone, not of host speed
};

std::string ToJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"virtual\": %s}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit, metrics[i].is_virtual ? "true" : "false");
    out += buf;
  }
  return out + "}";
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool smoke = false;
  std::string folded;  // traced run: where to write the folded stacks
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--folded" && has_value) {
      a.folded = argv[++i];
    } else if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--setup-only") {
      a.setup_only = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      Fatal("unknown or incomplete argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) {
    Fatal("--workload is required");
  }
  return a;
}

// Warms up until EPC++ has turned over twice, so the pages the fill left
// dirty are written back before measuring.
void WarmUp(Workload& w) {
  const suvm::Suvm& suvm = w.suvm();
  const uint64_t turnover = 2 * suvm.config().epc_pp_pages;
  const uint64_t majors0 = suvm.stats().major_faults.load();
  const uint64_t limit = 100 * turnover;
  for (uint64_t i = 0;; ++i) {
    const bool done = w.fixed_warmup() > 0
                          ? i >= w.fixed_warmup()
                          : suvm.stats().major_faults.load() - majors0 >= turnover;
    if (done) {
      return;
    }
    if (i >= limit) {
      Fatal("warm-up saw no EPC++ turnover after " + std::to_string(i) +
            " requests");
    }
    if (!ServeOne(w, NextCpu(w))) {
      Fatal("a warm-up request failed");
    }
  }
}

int Run(const Args& args) {
  const Sizes sizes = SizesFor(args.workload, args.smoke);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, sizes, args.seed);
  sim::Machine& machine = w->machine();
  for (size_t i = 0; i < w->cpus(); ++i) {
    w->EnterCpu(machine.cpu(i));
  }
  WarmUp(*w);
  const double setup_s = SecondsSince(kProcessStart);
  if (args.setup_only) {
    std::printf("{\"workload\": \"%s\", \"setup_s\": %.17g}\n",
                args.workload.c_str(), setup_s);
    return 0;
  }

  // Align every CPU to the machine maximum: the window starts with all
  // server threads at one instant, and no clock is ever reset.
  const uint64_t aligned = machine.MaxClock();
  for (size_t i = 0; i < w->cpus(); ++i) {
    machine.cpu(i).Charge(aligned - machine.cpu(i).clock.now());
  }

  const Counters before = Counters::Take(*w);
  if (args.trace) {
    machine.EnableTracing();
    w->layers().on = true;
  }
  std::vector<uint64_t> latency;
  latency.reserve(sizes.window);
  std::vector<double> window_rates;
  uint64_t failed = 0;
  const WallClock::time_point start = WallClock::now();
  WallClock::time_point chunk_t0 = start;
  for (uint64_t i = 0; i < sizes.window; ++i) {
    sim::CpuContext& cpu = NextCpu(*w);
    const uint64_t c0 = cpu.clock.now();
    failed += ServeOne(*w, cpu) ? 0 : 1;
    latency.push_back(cpu.clock.now() - c0);
    if ((i + 1) % sizes.chunk == 0) {
      window_rates.push_back(static_cast<double>(sizes.chunk) /
                             SecondsSince(chunk_t0) / 1e3);
      chunk_t0 = WallClock::now();
    }
  }
  const uint64_t window_ns = NanosSince(start);
  const Counters window_end = Counters::Take(*w);
  const Counters d = window_end - before;
  const uint64_t end_clock = machine.MaxClock();
  const Layers layers = w->layers();
  w->layers().on = false;
  uint64_t spans_dropped = 0;
  if (args.trace) {
    machine.metrics().spans().Disable();
    spans_dropped = machine.metrics().spans().dropped();
    if (!args.folded.empty()) {
      std::ofstream(args.folded) << machine.ExportFoldedStacks();
    }
  }

  // The rest of --seconds, untraced: more chunks for the host rate. A traced
  // run takes at least half as many chunks as its window, the untraced side
  // of the tracing overhead (single chunks vary by about 10%).
  std::vector<double> rest_rates;
  const WallClock::time_point rest_start = WallClock::now();
  while (SecondsSince(start) < args.seconds ||
         (args.trace && 2 * rest_rates.size() < window_rates.size())) {
    chunk_t0 = WallClock::now();
    for (uint64_t i = 0; i < sizes.chunk; ++i) {
      failed += ServeOne(*w, NextCpu(*w)) ? 0 : 1;
    }
    rest_rates.push_back(static_cast<double>(sizes.chunk) /
                         SecondsSince(chunk_t0) / 1e3);
  }
  const uint64_t rest_requests = rest_rates.size() * sizes.chunk;
  const uint64_t rest_ns = NanosSince(rest_start);
  const Counters end = Counters::Take(*w);
  const uint64_t rest_cycles = end.clocks - window_end.clocks;

  // --- Metrics ---
  const double n = static_cast<double>(sizes.window);
  uint64_t categorized = 0;
  for (uint64_t c : d.by_cat) {
    categorized += c;
  }
  uint64_t latency_sum = 0;
  for (uint64_t l : latency) {
    latency_sum += l;
  }
  // Each CPU's clock moves only while it serves, so the window's cycles are
  // exactly the sum of request latencies, and the categories a part of it.
  if (latency_sum != d.clocks || categorized > d.clocks) {
    Fatal("cycle accounting does not balance");
  }
  const uint64_t app_cycles = d.clocks - categorized;
  std::sort(latency.begin(), latency.end());
  const auto per_req = [n](uint64_t v) { return static_cast<double>(v) / n; };
  const auto ratio = [](uint64_t a, uint64_t b) {
    return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
  };
  using telemetry::CostCategory;
  std::vector<Metric> m = {
      {"sim_kops",
       machine.costs().OpsPerSecond(sizes.window, end_clock - aligned) / 1e3,
       "Kops/s", true},
      {"sim_p50_cycles", static_cast<double>(Percentile(latency, 50)), "cycles",
       true},
      {"sim_p99_cycles", static_cast<double>(Percentile(latency, 99)), "cycles",
       true},
      {"setup_s", setup_s, "s", false},
      {"peak_rss_mib", PeakRssMib(), "MiB", false},
      {"suvm.major_faults_per_req", per_req(d.major), "count", true},
      {"suvm.minor_faults_per_req", per_req(d.minor), "count", true},
      {"suvm.hit_ratio", ratio(d.minor, d.major), "fraction", true},
      {"suvm.cycles_per_req", per_req(CatCycles(d, CostCategory::kSuvmPaging)),
       "cycles", true},
      {"suvm.gate_wait_cycles_per_req", per_req(d.gate_wait), "cycles", true},
      {"suvm.coalesced_per_req", per_req(d.coalesced), "count", true},
      {"suvm.writebacks_per_req", per_req(d.writebacks), "count", true},
      {"suvm.clean_drops_per_req", per_req(d.clean_drops), "count", true},
      {"suvm.integrity_failures", static_cast<double>(end.integrity), "count",
       true},
      {"crypto.cycles_per_req", per_req(CatCycles(d, CostCategory::kCrypto)),
       "cycles", true},
      {"rpc.calls_per_req", per_req(d.rpc_calls), "count", true},
      {"rpc.cycles_per_req", per_req(CatCycles(d, CostCategory::kRpc)),
       "cycles", true},
      {"rpc.fallbacks", static_cast<double>(d.rpc_fallbacks), "count", true},
      {"sim.transitions_cycles_per_req",
       per_req(CatCycles(d, CostCategory::kTransitions)), "cycles", true},
      {"sgx.paging_cycles_per_req",
       per_req(CatCycles(d, CostCategory::kSgxPaging)), "cycles", true},
      {"sgx.hw_faults_per_req", per_req(d.hw_faults), "count", true},
      {"sgx.ipis_per_req", per_req(d.ipis), "count", true},
      {"sim.cache_cycles_per_req", per_req(CatCycles(d, CostCategory::kCache)),
       "cycles", true},
      {"sim.llc_miss_ratio", ratio(d.llc_misses, d.llc_hits), "fraction", true},
      {"sim.tlb_misses_per_req", per_req(d.tlb_misses), "count", true},
      {"sim.app_cycles_per_req", per_req(app_cycles), "cycles", true},
      {"sim.cycles_per_req", per_req(d.clocks), "cycles", true},
  };
  // The simulator's own speed, over the untraced part of the run: requests
  // per host second, and host time per simulated cycle.
  std::vector<double> untraced_rates = rest_rates;
  if (!args.trace) {
    untraced_rates.insert(untraced_rates.end(), window_rates.begin(),
                          window_rates.end());
  }
  const uint64_t host_ns = args.trace ? rest_ns : window_ns + rest_ns;
  const uint64_t host_cycles = args.trace ? rest_cycles : d.clocks + rest_cycles;
  m.push_back({"sim.host_kops", Median(untraced_rates), "Kops/s", false});
  m.push_back({"sim.host_ns_per_kcycle",
               static_cast<double>(host_ns) /
                   (static_cast<double>(host_cycles) / 1e3),
               "ns", false});
  if (args.trace) {
    double seal_us = 0.0, open_us = 0.0;
    CalibrateGcm(&seal_us, &open_us);
    const auto host_us_per_req = [n](uint64_t ns) {
      return static_cast<double>(ns) / 1e3 / n;
    };
    const uint64_t self_cycles =
        layers.request.cycles - layers.rpc.cycles - layers.region.cycles;
    const uint64_t self_ns =
        layers.request.host_ns - layers.rpc.host_ns - layers.region.host_ns;
    m.insert(m.end(), {
        {"crypto.host_us_per_4k_seal", seal_us, "us", false},
        {"crypto.host_us_per_4k_open", open_us, "us", false},
        {"rpc.host_us_per_call",
         layers.rpc.calls == 0 ? 0.0
                               : static_cast<double>(layers.rpc.host_ns) / 1e3 /
                                     static_cast<double>(layers.rpc.calls),
         "us", false},
        {"suvm.region_cycles_per_req", per_req(layers.region.cycles), "cycles",
         true},
        {"suvm.region_host_us_per_req", host_us_per_req(layers.region.host_ns),
         "us", false},
        {"apps.self_cycles_per_req", per_req(self_cycles), "cycles", true},
        {"apps.self_host_us_per_req", host_us_per_req(self_ns), "us", false},
        {"apps.lbp_host_us_per_req", host_us_per_req(layers.lbp.host_ns), "us",
         false},
        {"trace.host_overhead", Median(rest_rates) / Median(window_rates),
         "ratio", false},
        {"trace.spans_dropped", static_cast<double>(spans_dropped), "count",
         false},
    });
  }

  const uint64_t attempted = sizes.window + rest_requests;
  const bool correct = failed == 0 && end.integrity == 0;
  const std::string notes = w->Notes();
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, "
      "\"cycles\": {\"total\": %llu, \"app\": %llu, \"by_category\": [",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? "true" : "false", correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(d.clocks),
      static_cast<unsigned long long>(app_cycles));
  for (size_t i = 0; i < telemetry::kNumCostCategories; ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(d.by_cat[i]));
  }
  std::printf("]}, \"notes\": {%s}, \"metrics\": %s}\n", notes.c_str(),
              ToJson(m).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace eleos::bench

int main(int argc, char** argv) {
  using namespace eleos::bench;
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    Fatal(std::string("uncaught exception: ") + e.what());
  }
}
