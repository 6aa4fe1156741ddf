// Copyright (c) Eleos reproduction authors. MIT license.
//
// Span tracer correctness: nesting and per-category attribution, cross-thread
// parent/child linkage through the exit-less job queue, breaker-short-circuit
// spans, the cycle-accounting audit (exact form: a root span makes every
// categorized charge attributable, so per-category span sums equal the
// machine's sim.cycles.* totals), and the exporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/enclave.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"
#include "src/telemetry/telemetry.h"

namespace eleos {
namespace {

using telemetry::CostCategory;
using telemetry::SpanRecord;

std::vector<SpanRecord> ByName(const std::vector<SpanRecord>& snap,
                               const char* name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& r : snap) {
    if (std::string(r.name) == name) {
      out.push_back(r);
    }
  }
  return out;
}

std::map<uint64_t, SpanRecord> ById(const std::vector<SpanRecord>& snap) {
  std::map<uint64_t, SpanRecord> out;
  for (const SpanRecord& r : snap) {
    out.emplace(r.id, r);
  }
  return out;
}

TEST(SpanTracer, DisabledTracerRecordsNothingAndCostsNothing) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  sim::CpuContext& cpu = machine.cpu(0);
  enclave.Enter(cpu);
  enclave.Exit(cpu);
  EXPECT_GT(machine.metrics().GetCounter("sim.cycles.transitions")->value(),
            0u);
  EXPECT_TRUE(machine.metrics().spans().Snapshot().empty());
  EXPECT_EQ(machine.metrics().spans().CurrentSpanId(), 0u);
}

TEST(SpanTracer, NestingAndPerCategoryAttribution) {
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  telemetry::SpanTracer& spans = machine.metrics().spans();
  sim::CpuContext& cpu = machine.cpu(0);

  {
    sim::SpanScope outer(&spans, &cpu, "outer");
    machine.ChargeCost(&cpu, CostCategory::kRpc, 100);
    {
      sim::SpanScope inner(&spans, &cpu, "inner");
      machine.ChargeCost(&cpu, CostCategory::kRpc, 40);
      machine.ChargeCost(&cpu, CostCategory::kCrypto, 7);
    }
    machine.ChargeCost(&cpu, CostCategory::kTransitions, 3);
  }
  machine.ChargeCost(&cpu, CostCategory::kCache, 11);  // no open span

  const std::vector<SpanRecord> snap = spans.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const SpanRecord& outer = snap[0];  // sorted by (track, start, id)
  const SpanRecord& inner = snap[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.track, 0);
  EXPECT_LE(outer.start, inner.start);
  EXPECT_GE(outer.end, inner.end);

  // Self cycles: charges go to the *innermost* open span only.
  EXPECT_EQ(outer.self_cycles[static_cast<size_t>(CostCategory::kRpc)], 100u);
  EXPECT_EQ(inner.self_cycles[static_cast<size_t>(CostCategory::kRpc)], 40u);
  EXPECT_EQ(inner.self_cycles[static_cast<size_t>(CostCategory::kCrypto)], 7u);
  EXPECT_EQ(outer.self_cycles[static_cast<size_t>(CostCategory::kTransitions)],
            3u);
  EXPECT_EQ(spans.unattributed(CostCategory::kCache), 11u);
  EXPECT_EQ(spans.attributed(CostCategory::kRpc), 140u);

  // The span intervals really advanced with the charges.
  EXPECT_EQ(outer.end - outer.start, 150u);
  EXPECT_EQ(inner.end - inner.start, 47u);

  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
}

TEST(SpanTracer, AuditCatchesChargesThatBypassTheFunnel) {
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  machine.ChargeCost(&machine.cpu(0), CostCategory::kRpc, 10);
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
  // A counter bump that skips Machine::ChargeCost is exactly what the audit
  // exists to catch.
  machine.metrics().GetCounter("sim.cycles.rpc")->Add(5);
  EXPECT_FALSE(machine.AuditSpanAccounting(&error));
  EXPECT_NE(error.find("rpc"), std::string::npos) << error;
}

TEST(SpanTracer, AuditModeThrowsOnUnbalancedEnd) {
  telemetry::SpanTracer tracer;
  tracer.Enable(/*audit=*/true);
  EXPECT_THROW(tracer.EndSpan(0), std::logic_error);
}

TEST(SpanTracer, MidSpanDisableStillClosesTheOpenSpan) {
  telemetry::SpanTracer tracer;
  tracer.Enable();
  const uint64_t id = tracer.BeginSpan("scope", 10, 0);
  ASSERT_NE(id, 0u);
  tracer.Disable();
  tracer.EndSpan(20);  // SpanScope semantics: opened => must close
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.Snapshot().size(), 1u);
  EXPECT_EQ(tracer.Snapshot()[0].end, 20u);
}

TEST(SpanRpc, WorkerExecutionIsChildOfEnclaveCallOnAnotherTrack) {
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  sim::Enclave enclave(machine);
  {
    rpc::RpcManager::Options opts;
    opts.mode = rpc::RpcManager::Mode::kThreaded;
    opts.workers = 2;
    rpc::RpcManager rpc(enclave, opts);
    sim::CpuContext& cpu = machine.cpu(0);
    enclave.Enter(cpu);
    uint64_t sink = 0;
    for (uint64_t i = 0; i < 64; ++i) {
      sink += rpc.Call(&cpu, 64, [i] { return i * 3; });
    }
    enclave.Exit(cpu);
    (void)sink;
  }  // joins the workers: every emitted span is retired

  const std::vector<SpanRecord> snap = machine.metrics().spans().Snapshot();
  const std::map<uint64_t, SpanRecord> by_id = ById(snap);
  const std::vector<SpanRecord> workers = ByName(snap, "rpc.worker_exec");
  ASSERT_FALSE(workers.empty()) << "no call reached the worker pool";
  for (const SpanRecord& w : workers) {
    EXPECT_GE(w.track, telemetry::kWorkerTrackBase);
    ASSERT_NE(w.parent, 0u);
    const auto parent = by_id.find(w.parent);
    ASSERT_NE(parent, by_id.end()) << "worker span orphaned";
    EXPECT_STREQ(parent->second.name, "rpc.call");
    EXPECT_NE(parent->second.track, w.track)
        << "parent must live on the enclave CPU track";
    // The synthesized execution window nests inside the parent call.
    EXPECT_GE(w.start, parent->second.start);
    EXPECT_LE(w.end, parent->second.end);
  }

  EXPECT_EQ(machine.metrics().spans().dropped(), 0u);
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
}

TEST(SpanRpc, BreakerShortCircuitGetsItsOwnSpanUnderTheCall) {
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  sim::Enclave enclave(machine);
  {
    rpc::RpcManager::Options opts;
    opts.mode = rpc::RpcManager::Mode::kThreaded;
    opts.workers = 1;
    opts.submit_spin_budget = 64;  // fail fast; timeouts charge the budget
    opts.breaker_enabled = true;
    rpc::RpcManager rpc(enclave, opts);
    sim::CpuContext& cpu = machine.cpu(0);
    machine.fault_injector().Arm(sim::Fault::kQueueFull, 1.0);
    enclave.Enter(cpu);
    for (uint64_t i = 0; i < 64; ++i) {
      rpc.Call(&cpu, 64, [i] { return i; });
    }
    enclave.Exit(cpu);
    machine.fault_injector().Disarm(sim::Fault::kQueueFull);
    EXPECT_GT(rpc.breaker_short_circuits(), 0u);
  }

  const std::vector<SpanRecord> snap = machine.metrics().spans().Snapshot();
  const std::map<uint64_t, SpanRecord> by_id = ById(snap);
  const std::vector<SpanRecord> shorted =
      ByName(snap, "rpc.breaker_short_circuit");
  ASSERT_FALSE(shorted.empty());
  for (const SpanRecord& s : shorted) {
    ASSERT_NE(s.parent, 0u);
    const auto parent = by_id.find(s.parent);
    ASSERT_NE(parent, by_id.end());
    EXPECT_STREQ(parent->second.name, "rpc.call");
  }
  // The full-budget burns before the breaker opened are fallback spans.
  EXPECT_FALSE(ByName(snap, "rpc.fallback_ocall").empty());
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
}

TEST(SpanSuvm, RootSpanMakesTheAuditExact) {
  // The acceptance form of the audit: with the whole workload under a root
  // span, nothing is unattributed, so per category the sum of span
  // self-cycles equals the machine's sim.cycles.* total exactly.
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  sim::Enclave enclave(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 16;  // working set 4x the cache: constant paging
  cfg.backing_bytes = 16 << 20;
  cfg.swapper_low_watermark = 0;
  suvm::Suvm suvm(enclave, cfg);
  sim::CpuContext& cpu = machine.cpu(0);
  telemetry::SpanTracer& spans = machine.metrics().spans();

  {
    sim::SpanScope root(&spans, &cpu, "workload");
    // Deterministic chaos-style smoke: seed-derived ops under a rollback
    // window (absorbed by the page-in retry; occasional failures are legal).
    machine.fault_injector().LoadSchedule(
        {{sim::Fault::kRollback, 0.05, UINT64_MAX, 0, 100}});
    const uint64_t base = ValueOrThrow(suvm.Malloc(64 * sim::kPageSize));
    Xoshiro256 rng(42);
    std::vector<uint8_t> buf(256);
    enclave.Enter(cpu);
    for (uint64_t op = 0; op < 3000; ++op) {
      if (op % 30 == 0) {
        machine.fault_injector().AdvanceTime(op / 30);
      }
      const uint64_t addr =
          base + rng.NextBelow(64) * sim::kPageSize + rng.NextBelow(3840);
      if (rng.NextBelow(100) < 40) {
        rng.FillBytes(buf.data(), buf.size());
        (void)suvm.Write(&cpu, addr, buf.data(), buf.size());
      } else {
        (void)suvm.Read(&cpu, addr, buf.data(), buf.size());
      }
    }
    enclave.Exit(cpu);
    machine.fault_injector().ClearSchedule();
    machine.fault_injector().DisarmAll();
  }

  ASSERT_EQ(spans.dropped(), 0u);
  ASSERT_EQ(spans.open_spans(), 0u);
  uint64_t per_cat[telemetry::kNumCostCategories] = {};
  for (const SpanRecord& r : spans.Snapshot()) {
    for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
      per_cat[c] += r.self_cycles[c];
    }
  }
  for (size_t c = 0; c < telemetry::kNumCostCategories; ++c) {
    const auto cat = static_cast<CostCategory>(c);
    EXPECT_EQ(spans.unattributed(cat), 0u) << telemetry::CostCategoryName(cat);
    EXPECT_EQ(per_cat[c],
              machine.metrics()
                  .GetCounter(std::string("sim.cycles.") +
                              telemetry::CostCategoryName(cat))
                  ->value())
        << telemetry::CostCategoryName(cat);
  }
  // Paging really happened, in both layers, under named spans.
  EXPECT_GT(per_cat[static_cast<size_t>(CostCategory::kSuvmPaging)], 0u);
  EXPECT_GT(per_cat[static_cast<size_t>(CostCategory::kCache)], 0u);
  const std::vector<SpanRecord> snap = spans.Snapshot();
  EXPECT_FALSE(ByName(snap, "suvm.major_fault").empty());
  EXPECT_FALSE(ByName(snap, "suvm.evict").empty());
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
}

TEST(SpanExport, ChromeTraceAndFoldedStacksCarryTheCausalTree) {
  sim::Machine machine;
  machine.EnableTracing(/*audit=*/true);
  telemetry::SpanTracer& spans = machine.metrics().spans();
  sim::CpuContext& cpu = machine.cpu(0);
  {
    sim::SpanScope outer(&spans, &cpu, "outer");
    machine.ChargeCost(&cpu, CostCategory::kRpc, 50);
    // A ring event recorded inside the span must be stamped with its id.
    machine.metrics().trace().Record(telemetry::TraceKind::kRpcFallbackOcall,
                                     cpu.clock.now(), 1, 2);
    sim::SpanScope inner(&spans, &cpu, "inner");
    machine.ChargeCost(&cpu, CostCategory::kCrypto, 5);
  }

  const std::string chrome = machine.ExportChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("thread_name"), std::string::npos);
  EXPECT_NE(chrome.find("\"outer\""), std::string::npos);
  EXPECT_NE(chrome.find("\"inner\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("rpc_fallback_ocall"), std::string::npos);

  // The ring event carries the enclosing span's id and track.
  const std::vector<telemetry::TraceEvent> events =
      machine.metrics().trace().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::vector<SpanRecord> snap = spans.Snapshot();
  const std::vector<SpanRecord> outer = ByName(snap, "outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(events[0].span_id, outer[0].id);
  EXPECT_EQ(events[0].tid, 0u);

  // Folded stacks: inner's self time folds under outer on cpu0's track.
  const std::string folded = machine.ExportFoldedStacks();
  EXPECT_NE(folded.find("cpu0;outer 50"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cpu0;outer;inner 5"), std::string::npos) << folded;
}

}  // namespace
}  // namespace eleos
