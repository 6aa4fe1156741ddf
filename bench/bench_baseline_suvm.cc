// Copyright (c) Eleos reproduction authors. MIT license.
//
// Baseline benchmark: SUVM paging latency under an over-committed EPC++.
// Sequential writes populate a working set larger than the page cache, then
// random reads drive a mix of minor and major faults. Emits BENCH_suvm.json
// (schema in DESIGN.md "Benchmark baselines") with p50/p95/p99 of major and
// minor fault latency, eviction behavior, and a full metric snapshot.
//
// Extra profiles run on their own machines and land in the same JSON: a
// `parallel_fault` scaling sweep (1/2/4 simulated faulting threads over a
// shared region, round-robined deterministically on one OS thread; reports
// cycles-per-fault per thread count and the 1->4 `speedup` ratio), a
// request-sized variant of it (`request_step`: each thread runs several
// reads plus non-gated work per turn, the shape under which a trailing
// thread could be charged for gate sections it never overlapped), and a
// prefetch demo (sequential walk with the stride prefetcher enabled, so the
// suvm.prefetch.* counters have a non-zero witness while the main profile
// keeps them at zero).
//
// With --trace-out, span tracing is enabled for the whole workload and a
// Chrome trace-event JSON (plus a .folded flamegraph next to it) is written
// after the BENCH json: fault/evict/swapper spans on cpu0's track. The
// workload is single-threaded and deterministic, so the trace (and the
// span ids leaking into the metric snapshot's trace ring) are too.
//
// Usage: bench_baseline_suvm [--smoke] [--out <path>] [--trace-out <path>]

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/suvm/suvm.h"

int main(int argc, char** argv) {
  using namespace eleos;

  bool smoke = false;
  std::string out = "BENCH_suvm.json";
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

  // EPC++ holds a quarter of the working set: every fourth random read is a
  // major fault in steady state, so both histograms get a real population.
  const size_t kWsPages = smoke ? 512 : 8192;
  const size_t kPpPages = kWsPages / 4;
  const size_t kReads = smoke ? 4000 : 200000;

  sim::Machine machine(bench::FastMachine());
  if (!trace_out.empty()) {
    machine.EnableTracing();  // before the enclave: Enter opens the first span
  }
  // Time-series sampler: always on for the baseline artifact (the sampler
  // charges zero virtual cycles, so latency numbers are unaffected — tier-1
  // asserts byte-identical metrics with it off).
  telemetry::TimeSeriesSampler::Options tl;
  tl.window_cycles = 1ull << 18;
  machine.EnableTimeline(tl);
  sim::Enclave enclave(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = kPpPages;
  cfg.backing_bytes = 64ull << 20;
  cfg.swapper_low_watermark = 0;
  cfg.fast_seal = true;  // identical virtual-cycle charges, less wall-clock
  suvm::Suvm suvm(enclave, cfg);
  sim::CpuContext& cpu = machine.cpu(0);

  const uint64_t base = suvm.Malloc(kWsPages * sim::kPageSize);
  std::vector<uint8_t> buf(256, 0x5a);

  enclave.Enter(cpu);
  for (size_t p = 0; p < kWsPages; ++p) {
    suvm.Write(&cpu, base + p * sim::kPageSize + (p % 16), buf.data(),
               buf.size());
  }
  Xoshiro256 rng(42);
  for (size_t i = 0; i < kReads; ++i) {
    const uint64_t p = rng.NextBelow(kWsPages);
    suvm.Read(&cpu, base + p * sim::kPageSize + (i % 256), buf.data(),
              buf.size());
  }
  enclave.Exit(cpu);

  // Recovery profile: checkpoint/restore round-trips over a crash-consistent
  // region. Runs on its own machine — a second Suvm publishing into the main
  // registry would overwrite the paging profile's counters — and contributes
  // the suvm.checkpoint_cycles / suvm.recover_cycles histograms below.
  const size_t kRecRounds = smoke ? 4 : 24;
  const size_t kRecPages = smoke ? 128 : 1024;
  sim::Machine rec_machine(bench::FastMachine());
  {
    suvm::SuvmConfig rcfg;
    rcfg.epc_pp_pages = kRecPages / 4;
    rcfg.backing_bytes = 64ull << 20;
    rcfg.swapper_low_watermark = 0;
    rcfg.fast_seal = true;
    rcfg.crash_consistency = true;
    auto rec_enclave = std::make_unique<sim::Enclave>(rec_machine);
    auto rec = std::make_unique<suvm::Suvm>(*rec_enclave, rcfg);
    sim::CpuContext& rcpu = rec_machine.cpu(0);
    const uint64_t rbase = rec->Malloc(kRecPages * sim::kPageSize);
    Xoshiro256 rrng(7);
    for (size_t round = 0; round < kRecRounds; ++round) {
      for (size_t p = 0; p < kRecPages; ++p) {
        if (rrng.NextBelow(4) == 0) {  // dirty ~a quarter of the set per round
          rec->Write(&rcpu, rbase + p * sim::kPageSize, buf.data(), buf.size());
        }
      }
      StatusOr<sim::SgxDriver::SealedBlob> root = rec->SealCheckpoint(&rcpu);
      if (!root.ok()) {
        std::fprintf(stderr, "bench_baseline_suvm: checkpoint failed: %s\n",
                     root.status().ToString().c_str());
        return 1;
      }
      // Restart: a fresh enclave + Suvm adopt the surviving arena.
      std::shared_ptr<suvm::BackingStore> store = rec->shared_backing_store();
      rec.reset();
      rec_enclave = std::make_unique<sim::Enclave>(rec_machine);
      rec = std::make_unique<suvm::Suvm>(*rec_enclave, rcfg, store);
      suvm::Suvm::RecoveryReport report;
      const Status recovered = rec->TryRecover(&rcpu, *root, &report);
      if (!recovered.ok() || report.pages_quarantined != 0) {
        std::fprintf(stderr, "bench_baseline_suvm: recovery failed: %s\n",
                     recovered.ToString().c_str());
        return 1;
      }
    }
  }

  // Parallel fault-scaling profile: T simulated threads hammer one shared
  // over-committed region with random reads. A single OS thread round-robins
  // the T CpuContexts by smallest virtual clock (fully deterministic), so the
  // only serialization is the virtual one: the paging gate's recorded busy
  // sections, which cover the fault-logic slice but NOT the page-copy
  // crypto. Each turn of a thread (a "step") is `reads_per_step` reads plus
  // `work_cycles` of non-gated work. cycles_per_fault = machine-clock delta /
  // major-fault delta; `speedup` = cpf(1)/cpf(4) is the scaling ratio validate_bench.py
  // gates at >= 1.8x (with crypto inside the gate it would pin near 1.0).
  struct ParResult {
    size_t threads = 0;
    uint64_t reads = 0;
    uint64_t major_faults = 0;
    uint64_t fault_coalesced = 0;
    uint64_t gate_wait_cycles = 0;
    uint64_t clock_cycles = 0;
    double cycles_per_fault = 0.0;
  };
  const size_t kParWsPages = smoke ? 256 : 4096;
  const size_t kParPpPages = kParWsPages / 4;
  const size_t kParReads = smoke ? 1500 : 30000;  // per thread, measured
  auto run_parallel = [&](size_t threads, size_t reads_per_step,
                          uint64_t work_cycles) -> ParResult {
    sim::Machine pm(bench::FastMachine());
    sim::Enclave pe(pm);
    suvm::SuvmConfig pcfg;
    pcfg.epc_pp_pages = kParPpPages;
    pcfg.backing_bytes = 64ull << 20;
    pcfg.swapper_low_watermark = 0;
    pcfg.fast_seal = true;
    suvm::Suvm ps(pe, pcfg);
    const uint64_t pbase = ps.Malloc(kParWsPages * sim::kPageSize);
    for (size_t t = 0; t < threads; ++t) {
      pe.Enter(pm.cpu(t));
    }
    std::vector<Xoshiro256> rngs;
    for (size_t t = 0; t < threads; ++t) {
      rngs.emplace_back(100 + t);
    }
    for (size_t p = 0; p < kParWsPages; ++p) {
      ps.Write(&pm.cpu(0), pbase + p * sim::kPageSize, buf.data(), buf.size());
    }
    auto step = [&](size_t i) {  // reads i .. i + reads_per_step - 1
      size_t best = 0;  // run whichever simulated thread is furthest behind
      for (size_t t = 1; t < threads; ++t) {
        if (pm.cpu(t).clock.now() < pm.cpu(best).clock.now()) {
          best = t;
        }
      }
      for (size_t k = i; k < i + reads_per_step; ++k) {
        const uint64_t p = rngs[best].NextBelow(kParWsPages);
        ps.Read(&pm.cpu(best), pbase + p * sim::kPageSize + (k % 256),
                buf.data(), buf.size());
      }
      pm.cpu(best).Charge(work_cycles);
    };
    // Warmup into steady-state eviction, then align every clock to the
    // furthest-ahead one: the populate pass ran entirely on cpu0, and
    // measuring while the others catch up would deflate the max-clock delta.
    const size_t warmup = threads * kParReads / 4;
    for (size_t i = 0; i < warmup; i += reads_per_step) {
      step(i);
    }
    const uint64_t aligned = pm.MaxClock();
    for (size_t t = 0; t < threads; ++t) {
      pm.cpu(t).clock.Advance(aligned - pm.cpu(t).clock.now());
    }
    ParResult r;
    r.threads = threads;
    r.reads = threads * kParReads;
    const uint64_t majors0 = ps.stats().major_faults.load();
    const uint64_t coalesced0 = ps.stats().fault_coalesced.load();
    const uint64_t wait0 = ps.stats().gate_wait_cycles.load();
    for (size_t i = 0; i < r.reads; i += reads_per_step) {
      step(warmup + i);
    }
    r.major_faults = ps.stats().major_faults.load() - majors0;
    r.fault_coalesced = ps.stats().fault_coalesced.load() - coalesced0;
    r.gate_wait_cycles = ps.stats().gate_wait_cycles.load() - wait0;
    r.clock_cycles = pm.MaxClock() - aligned;
    if (r.major_faults == 0) {
      std::fprintf(stderr,
                   "bench_baseline_suvm: parallel_fault(%zu) took no major "
                   "faults — working set fits the cache?\n",
                   threads);
      std::exit(1);
    }
    r.cycles_per_fault =
        static_cast<double>(r.clock_cycles) / static_cast<double>(r.major_faults);
    for (size_t t = 0; t < threads; ++t) {
      pe.Exit(pm.cpu(t));
    }
    return r;
  };
  const ParResult par1 = run_parallel(1, 1, 0);
  const ParResult par2 = run_parallel(2, 1, 0);
  const ParResult par4 = run_parallel(4, 1, 0);
  const double par_speedup = par1.cycles_per_fault / par4.cycles_per_fault;
  // Request-sized turns: about a KvCache GET's worth of page accesses and
  // application work per step. validate_bench.py requires the gate wait per
  // major fault to stay within one fault-logic slice; a gate that charged a
  // trailing thread for another thread's sections in its virtual future
  // would charge a large part of a request per fault here.
  const uint64_t fault_logic_cycles = machine.costs().suvm_fault_logic_cycles;
  constexpr size_t kReqReads = 4;
  constexpr uint64_t kReqWork = 8000;
  const ParResult req4 = run_parallel(4, kReqReads, kReqWork);

  // Prefetch demo: a linear walk over a sealed-out region with the
  // sequential-stride prefetcher on (off everywhere else). Contributes the
  // issued/hits evidence validate_bench.py requires; the main profile above
  // must keep its suvm.prefetch.* counters at exactly zero.
  const size_t kPfPages = smoke ? 64 : 512;
  uint64_t pf_issued = 0, pf_hits = 0, pf_wasted = 0, pf_majors = 0;
  {
    sim::Machine fm(bench::FastMachine());
    sim::Enclave fe(fm);
    suvm::SuvmConfig fcfg;
    fcfg.epc_pp_pages = kPfPages / 4;
    fcfg.backing_bytes = 64ull << 20;
    fcfg.fast_seal = true;
    fcfg.prefetch_pages = 4;
    fcfg.prefetch_min_run = 2;
    // Prefetch consumes free slots only (it never evicts to make room), so
    // pair it with the eager reserve: every fault tops the free pool back up
    // to the watermark, which is what keeps the prefetcher fed mid-stream.
    fcfg.eager_reserve = true;
    fcfg.swapper_low_watermark = 8;
    suvm::Suvm fs(fe, fcfg);
    sim::CpuContext& fcpu = fm.cpu(0);
    const uint64_t fbase = fs.Malloc(kPfPages * sim::kPageSize);
    fe.Enter(fcpu);
    for (size_t p = 0; p < kPfPages; ++p) {  // seal out (early pages evict)
      fs.Write(&fcpu, fbase + p * sim::kPageSize, buf.data(), buf.size());
    }
    for (size_t p = 0; p < kPfPages; ++p) {  // the stream the prefetcher feeds
      fs.Read(&fcpu, fbase + p * sim::kPageSize, buf.data(), buf.size());
    }
    fe.Exit(fcpu);
    pf_issued = fs.stats().prefetch_issued.load();
    pf_hits = fs.stats().prefetch_hits.load();
    pf_wasted = fs.stats().prefetch_wasted.load();
    pf_majors = fs.stats().major_faults.load();
  }

  machine.CutTimeline();  // PublishAll + flush the open window

  const telemetry::Histogram* major =
      machine.metrics().GetHistogram("suvm.major_fault_cycles");
  const telemetry::Histogram* minor =
      machine.metrics().GetHistogram("suvm.minor_fault_cycles");
  const telemetry::Histogram* scan =
      machine.metrics().GetHistogram("suvm.evict_scan_len");
  const telemetry::Histogram* checkpoint =
      rec_machine.metrics().GetHistogram("suvm.checkpoint_cycles");
  const telemetry::Histogram* recover =
      rec_machine.metrics().GetHistogram("suvm.recover_cycles");

  std::string json = "{\n";
  json += "  \"schema_version\": 2,\n";
  json += "  \"bench\": \"suvm_baseline\",\n";
  json += bench::JsonKv("mode", smoke ? "smoke" : "full") + ",\n";
  json += "  \"workload\": {" + bench::JsonKv("working_set_pages", kWsPages) +
          ", " + bench::JsonKv("epc_pp_pages", kPpPages) + ", " +
          bench::JsonKv("random_reads", kReads) + ", " +
          bench::JsonKv("recovery_rounds", kRecRounds) + ", " +
          bench::JsonKv("recovery_pages", kRecPages) + "},\n";
  json += "  \"major_fault_cycles\": " + bench::LatencyJson(*major) + ",\n";
  json += "  \"minor_fault_cycles\": " + bench::LatencyJson(*minor) + ",\n";
  json += "  \"evict_scan_len\": " + bench::LatencyJson(*scan) + ",\n";
  json += "  \"checkpoint_cycles\": " + bench::LatencyJson(*checkpoint) + ",\n";
  json += "  \"recover_cycles\": " + bench::LatencyJson(*recover) + ",\n";
  auto par_json = [](const ParResult& r) {
    return "{" + bench::JsonKv("threads", static_cast<uint64_t>(r.threads)) +
           ", " + bench::JsonKv("measured_reads", r.reads) + ", " +
           bench::JsonKv("major_faults", r.major_faults) + ", " +
           bench::JsonKv("fault_coalesced", r.fault_coalesced) + ", " +
           bench::JsonKv("gate_wait_cycles", r.gate_wait_cycles) + ", " +
           bench::JsonKv("clock_cycles", r.clock_cycles) + ", " +
           bench::JsonKv("cycles_per_fault", r.cycles_per_fault) + "}";
  };
  json += "  \"parallel_fault\": {\n";
  json += "    \"threads_1\": " + par_json(par1) + ",\n";
  json += "    \"threads_2\": " + par_json(par2) + ",\n";
  json += "    \"threads_4\": " + par_json(par4) + ",\n";
  json += "    " + bench::JsonKv("speedup", par_speedup) + ",\n";
  json += "    \"request_step\": {" +
          bench::JsonKv("reads_per_step", static_cast<uint64_t>(kReqReads)) +
          ", " + bench::JsonKv("work_cycles", kReqWork) + ", " +
          bench::JsonKv("fault_logic_cycles", fault_logic_cycles) + ", " +
          bench::JsonKv("gate_wait_per_fault",
                        static_cast<double>(req4.gate_wait_cycles) /
                            static_cast<double>(req4.major_faults)) +
          ", \"threads_4\": " + par_json(req4) + "},\n";
  json += "    \"prefetch_demo\": {" +
          bench::JsonKv("pages", static_cast<uint64_t>(kPfPages)) + ", " +
          bench::JsonKv("issued", pf_issued) + ", " +
          bench::JsonKv("hits", pf_hits) + ", " +
          bench::JsonKv("wasted", pf_wasted) + ", " +
          bench::JsonKv("major_faults", pf_majors) + "}\n";
  json += "  },\n";
  json += "  \"latency_cycles\": " + bench::LatencyJson(*major) + ",\n";
  json += "  \"timeline\": " + machine.metrics().timeline().ToJson() + ",\n";
  json += "  \"metrics\": " + machine.metrics().ToJson() + "\n";
  json += "}\n";

  if (!bench::WriteFile(out, json)) {
    std::fprintf(stderr, "bench_baseline_suvm: cannot write %s\n", out.c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    std::string error;
    if (!machine.AuditSpanAccounting(&error)) {
      std::fprintf(stderr, "bench_baseline_suvm: span audit failed: %s\n",
                   error.c_str());
      return 1;
    }
    // The trace and BENCH json come from the same machine here, so the
    // .timeline.json sibling for validate_trace.py is the same block that
    // went into the bench document.
    if (!bench::WriteFile(trace_out, machine.ExportChromeTrace()) ||
        !bench::WriteFile(trace_out + ".folded",
                          machine.ExportFoldedStacks()) ||
        !bench::WriteFile(trace_out + ".timeline.json",
                          machine.metrics().timeline().ToJson() + "\n")) {
      std::fprintf(stderr, "bench_baseline_suvm: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("bench_baseline_suvm: trace -> %s (+ .folded, .timeline.json)\n",
                trace_out.c_str());
  }
  std::printf(
      "bench_baseline_suvm: %zu reads, major p50=%.0f p99=%.0f cycles, "
      "minor p50=%.0f, checkpoint p50=%.0f, recover p50=%.0f -> %s\n",
      kReads, major->Percentile(50), major->Percentile(99),
      minor->Percentile(50), checkpoint->Percentile(50),
      recover->Percentile(50), out.c_str());
  std::printf(
      "bench_baseline_suvm: parallel_fault cpf(1)=%.0f cpf(2)=%.0f "
      "cpf(4)=%.0f speedup=%.2fx, request_step gate wait/fault=%.1f, "
      "prefetch issued=%llu hits=%llu\n",
      par1.cycles_per_fault, par2.cycles_per_fault, par4.cycles_per_fault,
      par_speedup,
      static_cast<double>(req4.gate_wait_cycles) /
          static_cast<double>(req4.major_faults),
      static_cast<unsigned long long>(pf_issued),
      static_cast<unsigned long long>(pf_hits));
  return 0;
}
