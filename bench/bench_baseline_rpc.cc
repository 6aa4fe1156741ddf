// Copyright (c) Eleos reproduction authors. MIT license.
//
// Baseline benchmark: exit-less RPC call latency. Emits BENCH_rpc.json
// (schema in DESIGN.md "Benchmark baselines") with p50/p95/p99 of the
// submit→complete virtual-cycle latency plus a full metric snapshot, so CI
// and future PRs can diff performance against a recorded baseline.
//
// Besides the benign inline baseline, the bench runs a hostile profile pair
// (threaded dispatch under a permanently "full" host queue) that pits a
// static spin budget against the circuit breaker: the static config burns
// its submit budget on every call before falling back, while the breaker
// opens after a few timeouts and routes calls straight to the OCALL path,
// capping tail latency. Both hostile runs are fully deterministic — no call
// ever reaches the worker, so no wall-clock race leaks into virtual cycles.
//
// With --trace-out the bench additionally runs a short *threaded* phase with
// span tracing enabled and writes a Chrome trace-event JSON (plus a
// .folded flamegraph next to it): enclave-side rpc.call spans with the
// untrusted workers' executions as child spans on their own tracks. The
// phase runs on its own machine after BENCH_rpc.json is written, so the
// baseline artifact is byte-identical with or without the flag.
//
// Usage: bench_baseline_rpc [--smoke] [--out <path>] [--trace-out <path>]

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/libos/fs.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/fault_injector.h"

namespace {

struct HostileResult {
  std::string latency_json;
  uint64_t submit_timeouts = 0;
  uint64_t fallback_ocalls = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_short_circuits = 0;
  uint64_t breaker_probes = 0;
  double p99 = 0.0;
};

// One hostile run on a fresh machine: every submit finds the queue "full".
HostileResult RunHostile(size_t calls, size_t io_bytes, bool breaker) {
  using namespace eleos;
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  rpc::RpcManager::Options opts;
  opts.mode = rpc::RpcManager::Mode::kThreaded;
  opts.workers = 1;
  opts.submit_spin_budget = 1 << 12;  // burned whole on every static-call
  opts.breaker_enabled = breaker;
  opts.adaptive_spin = breaker;  // static profile = fixed budget, no healing
  rpc::RpcManager rpc(enclave, opts);
  sim::CpuContext& cpu = machine.cpu(0);

  machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
  enclave.Enter(cpu);
  uint64_t sink = 0;
  for (size_t i = 0; i < calls; ++i) {
    sink += rpc.Call(&cpu, io_bytes, [i] { return i ^ 0x5aull; });
  }
  enclave.Exit(cpu);
  machine.fault_injector().Disarm(sim::Fault::kQueueFull);

  const telemetry::Histogram* lat =
      machine.metrics().GetHistogram("rpc.call_cycles");
  HostileResult r;
  r.latency_json = bench::LatencyJson(*lat);
  r.submit_timeouts = rpc.submit_timeouts();
  r.fallback_ocalls = rpc.fallback_ocalls();
  r.breaker_opens = rpc.breaker_opens();
  r.breaker_short_circuits = rpc.breaker_short_circuits();
  r.breaker_probes = rpc.breaker_probes();
  r.p99 = lat->Percentile(99);
  (void)sink;
  return r;
}

struct BoundaryResult {
  uint64_t calls = 0;
  uint64_t rejected_inputs = 0;      // boundary.rejected_inputs snapshot
  uint64_t double_fetch_races = 0;   // boundary.double_fetch_races snapshot
  uint64_t iago_rejects = 0;         // EnclaveFs's own reject counter
  uint64_t benign_errors = 0;        // post-disarm sanity failures (must be 0)
};

// Hostile boundary profile (DESIGN.md §12): a lying host. Every Pread's
// byte-count return is mangled on the untrusted side (kIagoReturn at
// probability 1.0 — OCALL dispatch, no worker threads, so the run is fully
// deterministic), plus one iovec-overflow request rejected before any host
// call. Each mangled result must be rejected fail-closed by the trusted
// validation layer, so boundary.rejected_inputs lands at exactly calls + 1.
// The benign main run is the complement: its snapshot must hold both
// boundary.* counters at zero (validate_bench.py checks both directions).
BoundaryResult RunBoundaryHostile(size_t calls) {
  using namespace eleos;
  sim::Machine machine(bench::FastMachine());
  sim::Enclave enclave(machine);
  libos::MemFs host_fs;
  libos::EnclaveFs fs(enclave, host_fs, libos::ExitMode::kOcall);
  sim::CpuContext& cpu = machine.cpu(0);

  BoundaryResult r;
  r.calls = calls;
  enclave.Enter(cpu);
  uint8_t buf[256];
  const int fd = fs.Open(&cpu, "/boundary", libos::OpenFlags::kCreate |
                                                libos::OpenFlags::kRdWr);
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  if (fd == libos::kMemFsError ||
      fs.Pwrite(&cpu, fd, buf, sizeof(buf), 0) !=
          static_cast<int64_t>(sizeof(buf))) {
    ++r.benign_errors;
  }

  machine.fault_injector().Arm(sim::Fault::kIagoReturn, 1.0);
  for (size_t i = 0; i < calls; ++i) {
    if (fs.Pread(&cpu, fd, buf, sizeof(buf), 0) != libos::kMemFsError ||
        fs.last_status().ok()) {
      ++r.benign_errors;  // a mangled result slipped past validation
    }
  }
  machine.fault_injector().Disarm(sim::Fault::kIagoReturn);

  // One structurally hostile request: iovec lengths summing past SIZE_MAX
  // must be rejected before any cost is charged or host call made.
  libos::IoSlice overflow[2] = {{buf, SIZE_MAX - 4, 0}, {buf, 8, 0}};
  if (fs.Preadv(&cpu, fd, overflow, 2) != libos::kMemFsError ||
      fs.last_status().ok()) {
    ++r.benign_errors;
  }

  // Fail-closed means the honest path still works once the host stops lying.
  uint8_t check[256];
  if (fs.Pread(&cpu, fd, check, sizeof(check), 0) !=
          static_cast<int64_t>(sizeof(check)) ||
      !fs.last_status().ok() ||
      std::memcmp(check, buf, sizeof(check)) != 0) {
    ++r.benign_errors;
  }
  fs.Close(&cpu, fd);
  enclave.Exit(cpu);

  r.rejected_inputs =
      machine.metrics().GetCounter("boundary.rejected_inputs")->value();
  r.double_fetch_races =
      machine.metrics().CounterValue("boundary.double_fetch_races");
  r.iago_rejects = fs.iago_rejects();
  return r;
}

struct AsyncBatchResult {
  double serial_cpc = 0.0;  // virtual cycles per completed call, serial Call
  double batch_cpc = 0.0;   // same, CallAsyncBatch at the configured size
  double speedup = 0.0;
  uint64_t fallback_ocalls = 0;  // across both runs; 0 on a healthy host
  std::string batch_hist_json;
};

// The throughput profile the async/batch rewrite is for: a serial threaded
// Call loop vs. CallAsyncBatch+AwaitAll at `batch` jobs per doorbell, each on
// a fresh machine. Healthy host, so every call completes exit-less and the
// per-call virtual-cycle cost is exactly the deterministic ChargeSubmit
// charge — the batched run amortizes the rendezvous + read-back across the
// batch (see RpcManager::ChargeSubmit).
struct XorOp {
  uint64_t i;
  uint64_t operator()() const { return i ^ 0x5aull; }
};

AsyncBatchResult RunAsyncBatch(size_t calls, size_t batch, size_t io_bytes) {
  using namespace eleos;
  AsyncBatchResult r;
  {
    sim::Machine machine(bench::FastMachine());
    sim::Enclave enclave(machine);
    rpc::RpcManager::Options opts;
    opts.mode = rpc::RpcManager::Mode::kThreaded;
    opts.workers = 2;
    rpc::RpcManager rpc(enclave, opts);
    sim::CpuContext& cpu = machine.cpu(0);
    enclave.Enter(cpu);
    const uint64_t t0 = cpu.clock.now();
    uint64_t sink = 0;
    for (size_t i = 0; i < calls; ++i) {
      sink += rpc.Call(&cpu, io_bytes, [i] { return i ^ 0x5aull; });
    }
    r.serial_cpc = static_cast<double>(cpu.clock.now() - t0) /
                   static_cast<double>(calls);
    enclave.Exit(cpu);
    r.fallback_ocalls += rpc.fallback_ocalls();
    (void)sink;
  }
  {
    sim::Machine machine(bench::FastMachine());
    sim::Enclave enclave(machine);
    rpc::RpcManager::Options opts;
    opts.mode = rpc::RpcManager::Mode::kThreaded;
    opts.workers = 2;
    rpc::RpcManager rpc(enclave, opts);
    sim::CpuContext& cpu = machine.cpu(0);
    enclave.Enter(cpu);
    const uint64_t t0 = cpu.clock.now();
    uint64_t sink = 0;
    std::vector<XorOp> ops(batch);
    for (size_t g = 0; g < calls / batch; ++g) {
      for (size_t j = 0; j < batch; ++j) {
        ops[j].i = g * batch + j;
      }
      auto handles = rpc.CallAsyncBatch(&cpu, io_bytes, ops);
      for (uint64_t v : rpc.AwaitAll(&cpu, handles)) {
        sink += v;
      }
    }
    r.batch_cpc = static_cast<double>(cpu.clock.now() - t0) /
                  static_cast<double>(calls);
    enclave.Exit(cpu);
    r.fallback_ocalls += rpc.fallback_ocalls();
    r.batch_hist_json = bench::LatencyJson(
        *machine.metrics().GetHistogram("rpc.batch_size"));
    (void)sink;
  }
  r.speedup = r.batch_cpc > 0.0 ? r.serial_cpc / r.batch_cpc : 0.0;
  return r;
}

// Traced threaded demo: real workers, span tracing + audit on from machine
// construction, small enough to never overflow the per-thread span buffers.
bool RunTracedDemo(const std::string& trace_out) {
  using namespace eleos;
  sim::Machine machine(bench::FastMachine());
  machine.EnableTracing(/*audit=*/true);
  telemetry::TimeSeriesSampler::Options tl;
  tl.window_cycles = 1ull << 14;  // short demo: small windows so several cut
  machine.EnableTimeline(tl);
  sim::Enclave enclave(machine);
  {
    rpc::RpcManager::Options opts;
    opts.mode = rpc::RpcManager::Mode::kThreaded;
    opts.workers = 2;
    rpc::RpcManager rpc(enclave, opts);
    sim::CpuContext& cpu = machine.cpu(0);
    enclave.Enter(cpu);
    uint64_t sink = 0;
    for (size_t i = 0; i < 256; ++i) {
      sink += rpc.Call(&cpu, 256, [i] { return i ^ 0x5aull; });
    }
    // Async phase: singles awaited out of order, then batches — exercises
    // the rpc.call_async/rpc.await linked spans under the cycle audit.
    for (size_t i = 0; i < 16; ++i) {
      auto a = rpc.CallAsync(&cpu, 256, XorOp{2 * i});
      auto b = rpc.CallAsync(&cpu, 256, XorOp{2 * i + 1});
      sink += rpc.Await(&cpu, b);
      sink += rpc.Await(&cpu, a);
    }
    std::vector<XorOp> ops(8);
    for (size_t g = 0; g < 8; ++g) {
      for (size_t j = 0; j < ops.size(); ++j) {
        ops[j].i = g * ops.size() + j;
      }
      auto handles = rpc.CallAsyncBatch(&cpu, 256, ops);
      for (uint64_t v : rpc.AwaitAll(&cpu, handles)) {
        sink += v;
      }
    }
    enclave.Exit(cpu);
    (void)sink;
  }  // joins the workers: all spans are closed before export

  std::string error;
  if (!machine.AuditSpanAccounting(&error)) {
    std::fprintf(stderr, "bench_baseline_rpc: span audit failed: %s\n",
                 error.c_str());
    return false;
  }
  machine.CutTimeline();  // flush the open window before both exports
  // The .timeline.json sibling holds THIS machine's windows so
  // validate_trace.py can cross-check the trace's counter-track samples
  // against the windows they were generated from.
  if (!bench::WriteFile(trace_out, machine.ExportChromeTrace()) ||
      !bench::WriteFile(trace_out + ".folded", machine.ExportFoldedStacks()) ||
      !bench::WriteFile(trace_out + ".timeline.json",
                        machine.metrics().timeline().ToJson() + "\n")) {
    std::fprintf(stderr, "bench_baseline_rpc: cannot write %s\n",
                 trace_out.c_str());
    return false;
  }
  std::printf("bench_baseline_rpc: trace -> %s (+ .folded, .timeline.json)\n",
              trace_out.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eleos;

  bool smoke = false;
  std::string out = "BENCH_rpc.json";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out <path>] [--trace-out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  const size_t kCalls = smoke ? 2000 : 200000;
  const size_t kHostileCalls = smoke ? 2000 : 20000;
  const size_t kAsyncCalls = smoke ? 2000 : 40000;  // divisible by kBatch
  const size_t kBatch = 8;
  const size_t kIoBytes = 256;

  sim::Machine machine(bench::FastMachine());
  // Time-series sampler on the baseline machine: windows small enough that a
  // smoke run still cuts several, cheap enough (one branch per ChargeCost)
  // that cycle counts are identical with it off — tier-1 asserts that.
  telemetry::TimeSeriesSampler::Options tl;
  tl.window_cycles = 1ull << 18;
  machine.EnableTimeline(tl);
  sim::Enclave enclave(machine);
  rpc::RpcManager rpc(enclave, {.mode = rpc::RpcManager::Mode::kInline});
  sim::CpuContext& cpu = machine.cpu(0);

  enclave.Enter(cpu);
  uint64_t sink = 0;
  for (size_t i = 0; i < kCalls; ++i) {
    sink += rpc.Call(&cpu, kIoBytes, [i] { return i ^ 0x5aull; });
  }
  enclave.Exit(cpu);
  machine.CutTimeline();  // flush the open window

  const HostileResult stat =
      RunHostile(kHostileCalls, kIoBytes, /*breaker=*/false);
  const HostileResult brk =
      RunHostile(kHostileCalls, kIoBytes, /*breaker=*/true);
  const AsyncBatchResult ab = RunAsyncBatch(kAsyncCalls, kBatch, kIoBytes);
  const BoundaryResult bnd = RunBoundaryHostile(kHostileCalls);
  if (bnd.benign_errors != 0) {
    std::fprintf(stderr,
                 "bench_baseline_rpc: boundary profile saw %llu validation "
                 "escapes/sanity failures\n",
                 static_cast<unsigned long long>(bnd.benign_errors));
    return 1;
  }

  const telemetry::Histogram* lat =
      machine.metrics().GetHistogram("rpc.call_cycles");
  std::string json = "{\n";
  json += "  \"schema_version\": 2,\n";
  json += "  \"bench\": \"rpc_baseline\",\n";
  json += bench::JsonKv("mode", smoke ? "smoke" : "full") + ",\n";
  json += "  \"workload\": {" + bench::JsonKv("dispatch", "inline") + ", " +
          bench::JsonKv("calls", kCalls) + ", " +
          bench::JsonKv("io_bytes", kIoBytes) + "},\n";
  json += "  \"latency_cycles\": " + bench::LatencyJson(*lat) + ",\n";
  json += "  \"hostile\": {\n";
  json += "    \"workload\": {" + bench::JsonKv("dispatch", "threaded") +
          ", " + bench::JsonKv("calls", kHostileCalls) + ", " +
          bench::JsonKv("fault", "queue_full") + "},\n";
  json += "    \"static\": {\"latency_cycles\": " + stat.latency_json + ", " +
          bench::JsonKv("submit_timeouts", stat.submit_timeouts) + ", " +
          bench::JsonKv("fallback_ocalls", stat.fallback_ocalls) + "},\n";
  json += "    \"breaker\": {\"latency_cycles\": " + brk.latency_json + ", " +
          bench::JsonKv("breaker_opens", brk.breaker_opens) + ", " +
          bench::JsonKv("breaker_short_circuits", brk.breaker_short_circuits) +
          ", " + bench::JsonKv("breaker_probes", brk.breaker_probes) + ", " +
          bench::JsonKv("fallback_ocalls", brk.fallback_ocalls) + "}\n";
  json += "  },\n";
  json += "  \"async_batch\": {\n";
  json += "    \"workload\": {" + bench::JsonKv("dispatch", "threaded") +
          ", " + bench::JsonKv("calls", kAsyncCalls) + ", " +
          bench::JsonKv("batch_size", kBatch) + ", " +
          bench::JsonKv("io_bytes", kIoBytes) + "},\n";
  json += "    " + bench::JsonKv("serial_cycles_per_call", ab.serial_cpc) +
          ",\n";
  json += "    " + bench::JsonKv("batch_cycles_per_call", ab.batch_cpc) +
          ",\n";
  json += "    " + bench::JsonKv("speedup", ab.speedup) + ",\n";
  json += "    " + bench::JsonKv("fallback_ocalls", ab.fallback_ocalls) +
          ",\n";
  json += "    \"batch_size_hist\": " + ab.batch_hist_json + "\n";
  json += "  },\n";
  json += "  \"boundary\": {\n";
  json += "    \"workload\": {" + bench::JsonKv("dispatch", "ocall") + ", " +
          bench::JsonKv("calls", bnd.calls) + ", " +
          bench::JsonKv("fault", "iago_return") + "},\n";
  json += "    " + bench::JsonKv("rejected_inputs", bnd.rejected_inputs) +
          ",\n";
  json +=
      "    " + bench::JsonKv("double_fetch_races", bnd.double_fetch_races) +
      ",\n";
  json += "    " + bench::JsonKv("iago_rejects", bnd.iago_rejects) + "\n";
  json += "  },\n";
  json += "  \"timeline\": " + machine.metrics().timeline().ToJson() + ",\n";
  json += "  \"metrics\": " + machine.metrics().ToJson() + "\n";
  json += "}\n";

  if (!bench::WriteFile(out, json)) {
    std::fprintf(stderr, "bench_baseline_rpc: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("bench_baseline_rpc: %zu calls, p50=%.0f p99=%.0f cycles; "
              "hostile p99 static=%.0f breaker=%.0f; "
              "batch%zu %.1f vs %.1f cyc/call (%.2fx); "
              "boundary rejects=%llu -> %s\n",
              kCalls, lat->Percentile(50), lat->Percentile(99), stat.p99,
              brk.p99, kBatch, ab.batch_cpc, ab.serial_cpc, ab.speedup,
              static_cast<unsigned long long>(bnd.rejected_inputs),
              out.c_str());
  (void)sink;
  if (!trace_out.empty() && !RunTracedDemo(trace_out)) {
    return 1;
  }
  return 0;
}
