// Copyright (c) Eleos reproduction authors. MIT license.
//
// Telemetry layer: counters, log2 histograms (bucketing, percentiles),
// bounded trace ring, registry interning, and JSON snapshots.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace eleos::telemetry {
namespace {

TEST(Counter, AddAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), 64u);
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    // Every bucket's own bounds map back into the bucket.
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLower(b)), b);
    EXPECT_LT(Histogram::BucketLower(b), Histogram::BucketUpper(b));
  }
}

TEST(Histogram, CountSumMean) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, PercentilesAreOrderedAndBucketAccurate) {
  Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.Record(100);  // bucket [64, 128)
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(100000);  // bucket [65536, 131072)
  }
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log2 buckets promise at worst 2x quantization error.
  EXPECT_GE(p50, 64.0);
  EXPECT_LT(p50, 128.0);
  EXPECT_GE(p99, 65536.0);
  EXPECT_LT(p99, 131072.0);
  EXPECT_DOUBLE_EQ(Histogram().Percentile(99), 0.0);
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TraceRing, BoundedOverwriteOldestFirst) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Record(TraceKind::kSuvmMajorFault, /*tsc=*/i, /*arg0=*/i);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // oldest retained first
    EXPECT_EQ(events[i].arg0, 6 + i);
  }
  ring.Reset();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRing, DroppedIsExactUnderConcurrentRecorders) {
  TraceRing ring(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 25000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Record(TraceKind::kSuvmMajorFault, i, static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(ring.recorded(), kTotal);
  EXPECT_EQ(ring.dropped(), kTotal - 64);  // exact: recorded - retained
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (size_t i = 0; i < events.size(); ++i) {
    // Seq numbers are assigned under the ring lock, so the retained window
    // is exactly the last `capacity` events, oldest first.
    EXPECT_EQ(events[i].seq, kTotal - 64 + i);
  }
}

TEST(TraceRing, OldestFirstOrderingSurvivesMultipleWraps) {
  TraceRing ring(8);
  // 5 full wraps plus a partial one: the snapshot must always start at the
  // oldest retained event and be contiguous in seq.
  for (uint64_t i = 0; i < 8 * 5 + 3; ++i) {
    ring.Record(TraceKind::kSuvmEvictWriteback, i * 10, i);
    const std::vector<TraceEvent> events = ring.Snapshot();
    ASSERT_EQ(events.size(), std::min<size_t>(i + 1, 8));
    for (size_t j = 0; j + 1 < events.size(); ++j) {
      ASSERT_EQ(events[j].seq + 1, events[j + 1].seq) << "after event " << i;
    }
    ASSERT_EQ(events.back().seq, i);
    ASSERT_EQ(events.back().arg0, i);
  }
}

TEST(TraceRing, EventsAreUnboundWithoutASpanSource) {
  TraceRing ring(4);
  ring.Record(TraceKind::kSuvmMajorFault, 5, 1, 2);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, 0u);
  EXPECT_EQ(events[0].span_id, 0u);
}

TEST(Registry, RingEventsCarryTheRecordersInnermostSpan) {
  Registry r;  // wires trace() to spans() at construction
  r.spans().Enable();
  const uint64_t id = r.spans().BeginSpan("op", /*start_tsc=*/100, /*track=*/3);
  r.trace().Record(TraceKind::kSuvmMajorFault, 110, 7);
  r.spans().EndSpan(120);
  r.trace().Record(TraceKind::kSuvmMajorFault, 130, 8);  // outside any span
  const std::vector<TraceEvent> events = r.trace().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].span_id, id);
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_EQ(events[1].span_id, 0u);
  EXPECT_EQ(events[1].tid, 0u);
}

TEST(Registry, InternsByName) {
  Registry r;
  Counter* a = r.GetCounter("x.count");
  Counter* b = r.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(r.GetCounter("y.count"), a);
  Histogram* h1 = r.GetHistogram("x.lat");
  Histogram* h2 = r.GetHistogram("x.lat");
  EXPECT_EQ(h1, h2);
}

TEST(Registry, ToJsonContainsMetricsAndTrace) {
  Registry r;
  std::atomic<int64_t> level{-2};
  CellList cells(&r);
  cells.AddGauge("rpc.breaker_state", level);
  r.GetCounter("suvm.major_faults")->Add(3);
  r.GetHistogram("rpc.call_cycles")->Record(1000);
  r.trace().Record(TraceKind::kRpcFallbackOcall, 42, 1);
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"suvm.major_faults\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"rpc.breaker_state\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span_id\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rpc.call_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("rpc_fallback_ocall"), std::string::npos);
  // Crude structural check: balanced braces, no trailing comma before '}'.
  int depth = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '{') {
      ++depth;
    } else if (json[i] == '}') {
      --depth;
      ASSERT_GE(depth, 0);
      ASSERT_NE(json[i - 1], ',') << "trailing comma at " << i;
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(Registry, ListedCellsAreReadInPlaceAndSummedByName) {
  Registry r;
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<int64_t> level{0};
  r.GetCounter("ops")->Add(2);  // a registry-owned cell of the same name
  {
    CellList first(&r);
    first.AddCounter("ops", a);
    first.AddGauge("level", level);
    CellList second(&r);
    second.AddCounter("ops", b);
    second.AddGauge("level", level);  // the same cell again: counted once
    second.AddCounter("level", b);    // counters and gauges never mix
    a += 5;
    b += 7;
    level = -3;
    EXPECT_EQ(r.CounterValue("ops"), 14u) << "read in place, summed";
    const std::string json = r.ToJson();
    EXPECT_NE(json.find("{\"counters\":{\"level\":7,\"ops\":14}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"gauges\":{\"level\":-3}"), std::string::npos)
        << json;
  }
  // Unlisting folds each counter cell into its name; gauges drop out.
  a += 100;  // after unlisting: no longer counted
  EXPECT_EQ(r.CounterValue("ops"), 14u);
  EXPECT_NE(r.ToJson().find("\"gauges\":{}"), std::string::npos);
  // A cell listed again counts only what it gains from then on.
  CellList again(&r);
  again.AddCounter("ops", a);
  EXPECT_EQ(r.CounterValue("ops"), 14u);
  a += 1;
  EXPECT_EQ(r.CounterValue("ops"), 15u);
  CellList inert(nullptr);  // no registry: listing is a no-op
  inert.AddCounter("ops", b);
  EXPECT_EQ(r.CounterValue("ops"), 15u);
}

TEST(TraceKindNames, AllDistinct) {
  const TraceKind kinds[] = {
      TraceKind::kSuvmMajorFault,    TraceKind::kSuvmEvictWriteback,
      TraceKind::kSuvmEvictCleanDrop, TraceKind::kSuvmMacFailure,
      TraceKind::kRpcFallbackOcall,  TraceKind::kRpcWorkerRespawn,
      TraceKind::kSuvmBalloonResize,
      // Self-healing additions (breaker + quarantine + health).
      TraceKind::kRpcBreakerOpen,     TraceKind::kRpcBreakerClose,
      TraceKind::kSuvmPageQuarantined, TraceKind::kSuvmPageRestored,
      TraceKind::kSuvmHealthChange,
  };
  std::vector<std::string> names;
  for (TraceKind k : kinds) {
    names.emplace_back(TraceKindName(k));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(TraceKindNames, SelfHealingKindsHaveStableNames) {
  // These names are part of the tooling contract (scripts/validate_bench.py
  // and the soak harness grep for them).
  EXPECT_STREQ(TraceKindName(TraceKind::kRpcBreakerOpen), "rpc_breaker_open");
  EXPECT_STREQ(TraceKindName(TraceKind::kRpcBreakerClose), "rpc_breaker_close");
  EXPECT_STREQ(TraceKindName(TraceKind::kSuvmPageQuarantined),
               "suvm_page_quarantined");
  EXPECT_STREQ(TraceKindName(TraceKind::kSuvmPageRestored),
               "suvm_page_restored");
  EXPECT_STREQ(TraceKindName(TraceKind::kSuvmHealthChange),
               "suvm_health_change");
}

}  // namespace
}  // namespace eleos::telemetry
