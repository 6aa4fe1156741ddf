// Copyright (c) Eleos reproduction authors. MIT license.
//
// The post-mortem flight recorder (DESIGN.md §13): inert when unconfigured,
// ELEOS_FLIGHT_DIR / set_dir opt-in, and a self-contained JSON bundle — last
// timeline windows, trace-ring tail, open-span stacks, component health,
// full metric snapshot — that re-parses and carries the pre-failure story.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/rpc/rpc_manager.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries.h"
#include "tests/test_json.h"

namespace eleos::telemetry {
namespace {

// tier1.sh / CI export ELEOS_FLIGHT_DIR globally so every soak harness can
// dump; tests that probe the *unconfigured* behaviour must clear it first.
void ClearFlightEnv() { unsetenv("ELEOS_FLIGHT_DIR"); }

std::string MakeTempDir() {
  char tmpl[] = "/tmp/eleos_flight_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

testjson::Value ParseOrDie(const std::string& text) {
  testjson::Value doc;
  std::string error;
  EXPECT_TRUE(testjson::Parse(text, &doc, &error))
      << error << "\n--- input ---\n"
      << text.substr(0, 2000);
  return doc;
}

TEST(FlightRecorder, UnconfiguredRecorderIsInert) {
  ClearFlightEnv();
  Registry r;
  FlightRecorder& flight = r.flight();
  EXPECT_FALSE(flight.configured());
  EXPECT_EQ(flight.dir(), "");
  EXPECT_EQ(flight.Dump("soak_failed", 12345), "");
  EXPECT_EQ(flight.dumps(), 0u);
}

TEST(FlightRecorder, SetDirDumpsASanitizedParseableBundle) {
  ClearFlightEnv();
  const std::string dir = MakeTempDir();
  Registry r;
  std::atomic<int64_t> level{-3};
  CellList cells(&r);
  cells.AddGauge("level", level);
  r.GetHistogram("lat")->Record(100);
  r.trace().Record(TraceKind::kRpcFallbackOcall, /*tsc=*/500);
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);
  r.GetCounter("ops")->Add(41);  // after Enable: lands in window 0's delta
  tl.MaybeSample(1000);
  r.GetCounter("ops")->Add(1);
  tl.ForceCut(1500);

  FlightRecorder& flight = r.flight();
  flight.set_dir(dir);
  ASSERT_TRUE(flight.configured());
  const size_t source =
      flight.AddHealthSource("rpc.breaker", [] { return "healthy"; });

  // The reason is sanitized into the filename but preserved in the body.
  const std::string path = flight.Dump("Soak FAILED: op #7", 1500);
  ASSERT_NE(path, "");
  EXPECT_EQ(path, dir + "/FLIGHT_soak_failed__op__7_0.json");
  EXPECT_EQ(flight.dumps(), 1u);

  const testjson::Value doc = ParseOrDie(ReadFile(path));
  EXPECT_EQ(doc.Num("schema_version"), 1.0);
  EXPECT_EQ(doc.Str("kind"), "flight_bundle");
  EXPECT_EQ(doc.Str("reason"), "Soak FAILED: op #7");
  EXPECT_EQ(doc.Num("dump_tsc"), 1500.0);

  // Timeline block: both windows, with the counter delta story intact.
  const testjson::Value* timeline = doc.Find("timeline");
  ASSERT_NE(timeline, nullptr);
  const testjson::Value* windows = timeline->Find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_EQ(windows->array.size(), 2u);
  const testjson::Value* ops =
      windows->array[0].Find("counters")->Find("ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->Num("delta"), 41.0);

  // Trace tail carries the ring events with their kind names.
  const testjson::Value* tail = doc.Find("trace_tail");
  ASSERT_NE(tail, nullptr);
  const testjson::Value* events = tail->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].Str("kind"), "rpc_fallback_ocall");
  EXPECT_EQ(events->array[0].Num("tsc"), 500.0);

  // Health sources evaluate at dump time; the metric snapshot rides along.
  const testjson::Value* health = doc.Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->Str("rpc.breaker"), "healthy");
  const testjson::Value* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("counters")->Num("ops"), 42.0);
  EXPECT_EQ(metrics->Find("gauges")->Num("level"), -3.0);

  // A second dump gets a fresh sequence number, not an overwrite.
  const std::string path2 = flight.Dump("again", 2000);
  EXPECT_EQ(path2, dir + "/FLIGHT_again_1.json");
  EXPECT_EQ(flight.dumps(), 2u);

  flight.RemoveHealthSource(source);
  const testjson::Value after = ParseOrDie(flight.BundleJson("x", 0));
  EXPECT_EQ(after.Find("health")->Find("rpc.breaker"), nullptr)
      << "removed health sources must drop out of the bundle";
}

TEST(FlightRecorder, EnvVarConfiguresAndSetDirOverrides) {
  const std::string env_dir = MakeTempDir();
  const std::string override_dir = MakeTempDir();
  setenv("ELEOS_FLIGHT_DIR", env_dir.c_str(), /*overwrite=*/1);
  Registry r;
  FlightRecorder& flight = r.flight();
  EXPECT_EQ(flight.dir(), env_dir);
  const std::string env_path = flight.Dump("via_env", 1);
  EXPECT_EQ(env_path.rfind(env_dir + "/", 0), 0u) << env_path;

  // set_dir wins over the environment; clearing it reverts.
  flight.set_dir(override_dir);
  const std::string over_path = flight.Dump("via_override", 2);
  EXPECT_EQ(over_path.rfind(override_dir + "/", 0), 0u) << over_path;
  flight.set_dir("");
  EXPECT_EQ(flight.dir(), env_dir);
  ClearFlightEnv();
  EXPECT_FALSE(flight.configured());
}

TEST(FlightRecorder, TraceTailAndTimelineWindowsAreBounded) {
  ClearFlightEnv();
  Registry r;
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 100, .ring_windows = 64}, 0);
  Counter* c = r.GetCounter("ops");
  for (uint64_t i = 1; i <= 40; ++i) {
    c->Add(1);
    tl.MaybeSample(i * 100);
  }
  for (uint64_t i = 0; i < 300; ++i) {
    r.trace().Record(TraceKind::kSuvmMajorFault, /*tsc=*/i, /*arg0=*/i);
  }

  FlightRecorder& flight = r.flight();
  flight.set_options({.timeline_windows = 5, .trace_tail = 16});
  const testjson::Value doc = ParseOrDie(flight.BundleJson("bounded", 4000));

  const testjson::Value* windows = doc.Find("timeline")->Find("windows");
  ASSERT_EQ(windows->array.size(), 5u) << "last K windows only";
  EXPECT_EQ(windows->array.back().Num("index"), 39.0);
  const testjson::Value* events = doc.Find("trace_tail")->Find("events");
  ASSERT_EQ(events->array.size(), 16u) << "most recent ring events only";
  EXPECT_EQ(events->array.back().Num("arg0"), 299.0);
  EXPECT_EQ(events->array.front().Num("arg0"), 284.0);
}

TEST(FlightRecorder, BundleCapturesOpenSpanStacks) {
  ClearFlightEnv();
  sim::Machine machine;
  machine.EnableTracing();
  sim::CpuContext& cpu = machine.cpu(0);
  machine.ChargeCost(&cpu, CostCategory::kCache, 10);
  {
    sim::SpanScope outer(&machine.metrics().spans(), &cpu, "soak.round");
    sim::SpanScope inner(&machine.metrics().spans(), &cpu, "suvm.write");
    // Dump mid-span: the bundle must show what the thread was in the middle
    // of, outermost first (this is the post-mortem "where was everyone").
    const testjson::Value doc = ParseOrDie(
        machine.metrics().flight().BundleJson("hung", cpu.clock.now()));
    const testjson::Value* stacks = doc.Find("open_spans");
    ASSERT_NE(stacks, nullptr);
    ASSERT_EQ(stacks->array.size(), 1u);
    const testjson::Value* spans = stacks->array[0].Find("spans");
    ASSERT_EQ(spans->array.size(), 2u);
    EXPECT_EQ(spans->array[0].Str("name"), "soak.round");
    EXPECT_EQ(spans->array[1].Str("name"), "suvm.write");
  }
  // Quiesced: no open spans left in a fresh bundle.
  const testjson::Value doc = ParseOrDie(
      machine.metrics().flight().BundleJson("quiesced", cpu.clock.now()));
  EXPECT_TRUE(doc.Find("open_spans")->array.empty());
}

TEST(FlightRecorder, MachineDumpFlightOnInjectedHostCrash) {
  ClearFlightEnv();
  const std::string dir = MakeTempDir();
  sim::Machine machine;
  machine.metrics().flight().set_dir(dir);
  machine.EnableTimeline({.window_cycles = 1u << 14, .ring_windows = 64});

  sim::Enclave enclave(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 1 << 20;
  cfg.swapper_low_watermark = 0;
  cfg.crash_consistency = true;
  suvm::Suvm suvm(enclave, cfg);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(suvm.Malloc(24 * sim::kPageSize));

  // Writes force journaled seals (cache 8 pages, region 24); the armed crash
  // point kills the instance mid-2PC.
  machine.fault_injector().Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  std::vector<uint8_t> page(sim::kPageSize, 0x5a);
  for (size_t p = 0; p < 24 && !suvm.crashed(); ++p) {
    (void)suvm.Write(&cpu, base + p * sim::kPageSize, page.data(),
                     page.size());
  }
  ASSERT_TRUE(suvm.crashed());

  const std::string path = machine.DumpFlight("host_crash");
  ASSERT_NE(path, "");
  const testjson::Value doc = ParseOrDie(ReadFile(path));
  EXPECT_EQ(doc.Str("reason"), "host_crash");

  // The crash event is in the trace tail...
  bool crash_traced = false;
  for (const testjson::Value& e :
       doc.Find("trace_tail")->Find("events")->array) {
    if (e.Str("kind") == "suvm_host_crash") {
      crash_traced = true;
    }
  }
  EXPECT_TRUE(crash_traced);
  // ...the component health sources report in (the SUVM alloc FSM registers
  // itself at construction)...
  EXPECT_NE(doc.Find("health")->Find("suvm.alloc"), nullptr);
  // ...and the metric snapshot, which reads the Suvm's counters in place,
  // agrees the host crashed exactly once.
  EXPECT_EQ(doc.Find("metrics")->Find("counters")->Num("suvm.host_crashes"),
            1.0);
  // The timeline rode along, cut up to the dump timestamp.
  const testjson::Value* timeline = doc.Find("timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_FALSE(timeline->Find("windows")->array.empty());
  EXPECT_LE(timeline->Find("windows")->array.back().Num("end_tsc"),
            doc.Num("dump_tsc"));
}

// The ISSUE 9 acceptance scenario end to end: a seeded hostile run whose
// RPC layer is falling back under queue-full backpressure, then an injected
// host crash — the post-mortem bundle must carry the pre-crash story: a
// timeline window with a nonzero rpc.fallback_ocalls rate *before* the crash
// event, and the rpc.fallback_rate SLO watchdog firing on that ramp.
TEST(FlightRecorder, CrashBundleShowsFallbackRampBeforeHostCrash) {
  ClearFlightEnv();
  const std::string dir = MakeTempDir();
  sim::Machine machine;
  machine.metrics().flight().set_dir(dir);
  machine.EnableTimeline({.window_cycles = 1u << 14, .ring_windows = 256});

  sim::Enclave enclave(machine);
  rpc::RpcManager::Options opts;
  opts.mode = rpc::RpcManager::Mode::kThreaded;
  opts.workers = 1;
  opts.submit_spin_budget = 1 << 10;
  opts.breaker_enabled = false;  // keep every hostile call a visible fallback
  rpc::RpcManager rpc(enclave, opts);
  sim::CpuContext& cpu = machine.cpu(0);

  // Phase 1: queue-full backpressure — every call burns its submit budget
  // and falls back to OCALL, ramping the rpc.fallback_ocalls counter across
  // several timeline windows.
  machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
  enclave.Enter(cpu);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    sink += rpc.Call(&cpu, 256, [i] { return i ^ 0x5aull; });
  }
  enclave.Exit(cpu);
  machine.fault_injector().Disarm(sim::Fault::kQueueFull);
  (void)sink;
  ASSERT_GT(rpc.fallback_ocalls(), 0u);

  // Phase 2: the host dies mid-2PC in the journaled SUVM write path.
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 1 << 20;
  cfg.swapper_low_watermark = 0;
  cfg.crash_consistency = true;
  suvm::Suvm suvm(enclave, cfg);
  const uint64_t base = ValueOrThrow(suvm.Malloc(24 * sim::kPageSize));
  machine.fault_injector().Arm(sim::Fault::kHostCrash, 1.0, /*max_triggers=*/1);
  std::vector<uint8_t> page(sim::kPageSize, 0xa5);
  for (size_t p = 0; p < 24 && !suvm.crashed(); ++p) {
    (void)suvm.Write(&cpu, base + p * sim::kPageSize, page.data(),
                     page.size());
  }
  ASSERT_TRUE(suvm.crashed());

  const std::string path = machine.DumpFlight("chaos_host_crash");
  ASSERT_NE(path, "");
  const testjson::Value doc = ParseOrDie(ReadFile(path));

  // The crash event anchors "when it died" on the virtual clock.
  uint64_t crash_tsc = 0;
  for (const testjson::Value& e :
       doc.Find("trace_tail")->Find("events")->array) {
    if (e.Str("kind") == "suvm_host_crash") {
      crash_tsc = static_cast<uint64_t>(e.Num("tsc"));
    }
  }
  ASSERT_GT(crash_tsc, 0u) << "host crash must be in the trace tail";

  // At least one pre-crash window carries a nonzero rpc.fallback_ocalls
  // rate, and the declarative rpc.fallback_rate SLO rule (RpcManager
  // registers it at construction) flagged the ramp.
  bool fallback_window_before_crash = false;
  bool slo_fired = false;
  for (const testjson::Value& w :
       doc.Find("timeline")->Find("windows")->array) {
    if (static_cast<uint64_t>(w.Num("end_tsc")) > crash_tsc) {
      continue;
    }
    const testjson::Value* fb =
        w.Find("counters")->Find("rpc.fallback_ocalls");
    if (fb != nullptr && fb->Num("delta") > 0.0 &&
        fb->Num("rate_per_mcycle") > 0.0) {
      fallback_window_before_crash = true;
    }
    for (const testjson::Value& eval : w.Find("slo")->array) {
      if (eval.Str("rule") == "rpc.fallback_rate" &&
          eval.Find("violated")->boolean) {
        slo_fired = true;
      }
    }
  }
  EXPECT_TRUE(fallback_window_before_crash)
      << "the bundle must show the fallback ramp before the crash";
  EXPECT_TRUE(slo_fired) << "the rpc.fallback_rate SLO watchdog must fire";
  EXPECT_GT(doc.Find("metrics")->Find("counters")->Num("slo.violations"), 0.0);
}

TEST(FlightRecorder, FlightOnFailureGuardDumpsOnlyWhenFailed) {
  ClearFlightEnv();
  const std::string dir = MakeTempDir();
  sim::Machine machine;
  machine.metrics().flight().set_dir(dir);
  bool failed = false;
  {
    sim::FlightOnFailure guard(machine, "guard_test", [&] { return failed; });
  }
  EXPECT_EQ(machine.metrics().flight().dumps(), 0u)
      << "a passing scope must not dump";
  {
    sim::FlightOnFailure guard(machine, "guard_test", [&] { return failed; });
    failed = true;
  }
  EXPECT_EQ(machine.metrics().flight().dumps(), 1u);
}

}  // namespace
}  // namespace eleos::telemetry
