// Copyright (c) Eleos reproduction authors. MIT license.
//
// The virtual-clock time-series sampler (DESIGN.md §13): windowed counter
// deltas and rates, per-window histogram percentiles from log2-bucket
// deltas, ring wraparound, the declarative SLO watchdog (counter-rate,
// histogram-p99, gauge-duty kinds + the opt-in HealthFsm hook), and the
// determinism guard — sampling charges zero virtual cycles and leaves the
// metric snapshot byte-identical.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/health.h"
#include "src/common/rng.h"
#include "src/sim/machine.h"
#include "src/suvm/suvm.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries.h"
#include "tests/test_json.h"

namespace eleos::telemetry {
namespace {

// --- PercentileFromBuckets: the unit of the windowed percentile math ---

TEST(PercentileFromBuckets, EmptyBucketsEstimateZero) {
  uint64_t buckets[Histogram::kBuckets] = {};
  EXPECT_EQ(PercentileFromBuckets(buckets, 50), 0.0);
  EXPECT_EQ(PercentileFromBuckets(buckets, 99), 0.0);
}

TEST(PercentileFromBuckets, SingleBucketInterpolatesLinearly) {
  // Four samples of value 10 land in bucket 4 (range [8, 16)).
  uint64_t buckets[Histogram::kBuckets] = {};
  buckets[Histogram::BucketFor(10)] = 4;
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(buckets, 50), 12.0);   // rank 2 of 4
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(buckets, 100), 16.0);  // rank 4 of 4
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(buckets, 1), 10.0);    // rank 1 of 4
}

TEST(PercentileFromBuckets, RankWalksAcrossBuckets) {
  // 50 zeros (bucket 0, range [0, 1)) + 50 samples of ~1000 (bucket 10,
  // range [512, 1024)): the median sits at the top of the zero bucket, the
  // tail percentiles inside the big one.
  uint64_t buckets[Histogram::kBuckets] = {};
  buckets[Histogram::BucketFor(0)] = 50;
  buckets[Histogram::BucketFor(1000)] = 50;
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(buckets, 50), 1.0);
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(buckets, 95),
                   512.0 + 512.0 * (45.0 / 50.0));
  EXPECT_GT(PercentileFromBuckets(buckets, 99), 512.0);
  // Out-of-range p clamps instead of reading past the rank range.
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(buckets, 200),
                   PercentileFromBuckets(buckets, 100));
}

// --- Sampler mechanics on a bare Registry (no machine needed) ---

TEST(TimeSeries, DisabledSamplerIsInert) {
  Registry r;
  TimeSeriesSampler& tl = r.timeline();
  EXPECT_FALSE(tl.enabled());
  r.GetCounter("x")->Add(5);
  tl.MaybeSample(1u << 30);
  tl.ForceCut(1u << 30);
  EXPECT_EQ(tl.windows_recorded(), 0u);
  EXPECT_TRUE(tl.Windows().empty());
}

TEST(TimeSeries, BoundariesLandOnWindowMultiples) {
  // Enabled mid-window at t=2500 with 1000-cycle windows: the first cut can
  // only happen at t=3000, regardless of the enable time, so a deterministic
  // replay cuts at identical virtual timestamps.
  Registry r;
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, /*now=*/2500);
  tl.MaybeSample(2999);
  EXPECT_EQ(tl.windows_recorded(), 0u);
  tl.MaybeSample(3000);
  ASSERT_EQ(tl.windows_recorded(), 1u);
  const std::vector<TimelineWindow> w = tl.Windows();
  EXPECT_EQ(w[0].start_tsc, 2500u);
  EXPECT_EQ(w[0].end_tsc, 3000u);
  // A clock that jumps several windows still cuts once, at the jump point.
  tl.MaybeSample(7321);
  ASSERT_EQ(tl.windows_recorded(), 2u);
  EXPECT_EQ(tl.Windows()[1].start_tsc, 3000u);
  EXPECT_EQ(tl.Windows()[1].end_tsc, 7321u);
}

TEST(TimeSeries, WindowsHoldPerWindowCounterDeltasAndRates) {
  Registry r;
  Counter* hot = r.GetCounter("hot");
  r.GetCounter("idle");  // registered but never moved: must be omitted
  std::atomic<int64_t> level{0};
  CellList cells(&r);
  cells.AddGauge("level", level);
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);

  hot->Add(10);
  level = 7;
  tl.MaybeSample(1000);
  hot->Add(3);
  level = -2;
  tl.MaybeSample(2000);

  const std::vector<TimelineWindow> w = tl.Windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].CounterDelta("hot"), 10u);
  EXPECT_EQ(w[1].CounterDelta("hot"), 3u);
  // Deltas, not cumulative values — and rates normalize per million cycles.
  EXPECT_DOUBLE_EQ(w[0].RatePerMCycle("hot"), 10.0 / 1000.0 * 1e6);
  EXPECT_DOUBLE_EQ(w[1].RatePerMCycle("hot"), 3.0 / 1000.0 * 1e6);
  // A counter that never moved is omitted (delta 0), not recorded as zero.
  EXPECT_EQ(w[0].CounterDelta("idle"), 0u);
  for (const auto& [name, delta] : w[0].counters) {
    EXPECT_NE(name, "idle");
  }
  // Gauges hold the level observed at the cut, signed.
  bool found = false;
  EXPECT_EQ(w[0].GaugeAt("level", &found), 7);
  EXPECT_TRUE(found);
  EXPECT_EQ(w[1].GaugeAt("level"), -2);
  EXPECT_EQ(w[1].GaugeAt("nope", &found), 0);
  EXPECT_FALSE(found);
}

TEST(TimeSeries, WindowedHistogramPercentilesUseBucketDeltas) {
  Registry r;
  Histogram* h = r.GetHistogram("lat");
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);

  for (int i = 0; i < 4; ++i) {
    h->Record(10);  // bucket [8, 16)
  }
  tl.MaybeSample(1000);
  for (int i = 0; i < 8; ++i) {
    h->Record(1000);  // bucket [512, 1024)
  }
  tl.MaybeSample(2000);
  tl.MaybeSample(3000);  // third window: no samples at all

  const std::vector<TimelineWindow> w = tl.Windows();
  ASSERT_EQ(w.size(), 3u);
  ASSERT_EQ(w[0].histograms.size(), 1u);
  EXPECT_EQ(w[0].histograms[0].name, "lat");
  EXPECT_EQ(w[0].histograms[0].count, 4u);
  EXPECT_DOUBLE_EQ(w[0].histograms[0].p50, 12.0);
  // Window 2 sees ONLY its own samples: the cumulative histogram now holds
  // both batches, but the per-window view is the bucket delta.
  ASSERT_EQ(w[1].histograms.size(), 1u);
  EXPECT_EQ(w[1].histograms[0].count, 8u);
  EXPECT_GT(w[1].histograms[0].p50, 512.0);
  // A window with no samples omits the histogram instead of emitting p=0.
  EXPECT_TRUE(w[2].histograms.empty());
}

TEST(TimeSeries, RingWraparoundKeepsNewestWindowsAndCountsDrops) {
  Registry r;
  Counter* c = r.GetCounter("ops");
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 100, .ring_windows = 4}, 0);
  for (uint64_t i = 1; i <= 10; ++i) {
    c->Add(i);  // distinct delta per window
    tl.MaybeSample(i * 100);
  }
  EXPECT_EQ(tl.windows_recorded(), 10u);
  EXPECT_EQ(tl.windows_dropped(), 6u);
  const std::vector<TimelineWindow> w = tl.Windows();
  ASSERT_EQ(w.size(), 4u);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].index, 6 + i) << "window indexes survive ring drops";
    EXPECT_EQ(w[i].CounterDelta("ops"), 7 + i);
  }

  // ToJson reports the full recorded/dropped totals and can bound how many
  // windows it embeds (the flight recorder's last-K view).
  testjson::Value doc;
  std::string error;
  ASSERT_TRUE(testjson::Parse(tl.ToJson(/*max_windows=*/2), &doc, &error))
      << error;
  EXPECT_EQ(doc.Num("window_cycles"), 100.0);
  EXPECT_EQ(doc.Num("windows_recorded"), 10.0);
  EXPECT_EQ(doc.Num("windows_dropped"), 6.0);
  const testjson::Value* windows = doc.Find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_EQ(windows->array.size(), 2u);
  EXPECT_EQ(windows->array[0].Num("index"), 8.0);
  EXPECT_EQ(windows->array[1].Num("index"), 9.0);
}

TEST(TimeSeries, ForceCutFlushesThePartialWindowOnce) {
  Registry r;
  Counter* c = r.GetCounter("ops");
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);
  c->Add(1);
  tl.MaybeSample(1000);
  c->Add(2);
  tl.ForceCut(1500);  // mid-window flush (end-of-run / flight dump)
  ASSERT_EQ(tl.windows_recorded(), 2u);
  const std::vector<TimelineWindow> w = tl.Windows();
  EXPECT_EQ(w[1].start_tsc, 1000u);
  EXPECT_EQ(w[1].end_tsc, 1500u);
  EXPECT_EQ(w[1].CounterDelta("ops"), 2u);
  // Idempotent at the same timestamp: no zero-length window.
  tl.ForceCut(1500);
  EXPECT_EQ(tl.windows_recorded(), 2u);
}

TEST(TimeSeries, ReenableResetsRingAndBaseline) {
  Registry r;
  Counter* c = r.GetCounter("ops");
  TimeSeriesSampler& tl = r.timeline();
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);
  c->Add(42);
  tl.MaybeSample(1000);
  EXPECT_EQ(tl.windows_recorded(), 1u);

  // Re-enabling re-baselines: the 42 already counted must not bleed into the
  // first window of the new run.
  tl.Enable({.window_cycles = 500, .ring_windows = 8}, 2000);
  EXPECT_EQ(tl.windows_recorded(), 0u);
  c->Add(1);
  tl.MaybeSample(2500);
  ASSERT_EQ(tl.windows_recorded(), 1u);
  EXPECT_EQ(tl.Windows()[0].CounterDelta("ops"), 1u);
}

// --- The SLO watchdog ---

TEST(TimeSeriesSlo, CounterRateRuleFiresAndTraces) {
  Registry r;
  Counter* fb = r.GetCounter("fb");
  TimeSeriesSampler& tl = r.timeline();
  SloRule rule;
  rule.name = "fb_rate";
  rule.kind = SloRule::Kind::kCounterRate;
  rule.metric = "fb";
  rule.threshold = 50.0;  // per million cycles
  const size_t id = tl.AddRule(rule);
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);

  fb->Add(1);  // 1 per 1000 cycles = 1000/Mcycle > 50: violated
  tl.MaybeSample(1000);
  tl.MaybeSample(2000);  // clean window: evaluated, not violated

  EXPECT_EQ(r.GetCounter("slo.violations")->value(), 1u);
  EXPECT_EQ(r.GetCounter("slo.violations.fb_rate")->value(), 1u);
  const std::vector<TimelineWindow> w = tl.Windows();
  ASSERT_EQ(w.size(), 2u);
  ASSERT_EQ(w[0].slo.size(), 1u);
  EXPECT_EQ(w[0].slo[0].rule, "fb_rate");
  EXPECT_DOUBLE_EQ(w[0].slo[0].value, 1000.0);
  EXPECT_TRUE(w[0].slo[0].violated);
  ASSERT_EQ(w[1].slo.size(), 1u) << "every rule is evaluated every window";
  EXPECT_FALSE(w[1].slo[0].violated);

  // The violation left a kSloViolation ring event stamped with the rule id.
  bool traced = false;
  for (const TraceEvent& e : r.trace().Snapshot()) {
    if (e.kind == TraceKind::kSloViolation) {
      traced = true;
      EXPECT_EQ(e.arg0, id);
      EXPECT_EQ(e.tsc, 1000u);
    }
  }
  EXPECT_TRUE(traced);

  tl.RemoveRule(id);
  fb->Add(10);
  tl.MaybeSample(3000);
  EXPECT_EQ(r.GetCounter("slo.violations")->value(), 1u)
      << "a removed rule must stop firing";
  EXPECT_TRUE(tl.Windows()[2].slo.empty());
}

TEST(TimeSeriesSlo, HistogramP99RuleIgnoresEmptyWindows) {
  Registry r;
  Histogram* h = r.GetHistogram("lat");
  TimeSeriesSampler& tl = r.timeline();
  SloRule rule;
  rule.name = "lat_p99";
  rule.kind = SloRule::Kind::kHistogramP99;
  rule.metric = "lat";
  rule.threshold = 100.0;
  tl.AddRule(rule);
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);

  tl.MaybeSample(1000);  // no samples: value 0, never violates
  for (int i = 0; i < 16; ++i) {
    h->Record(100000);
  }
  tl.MaybeSample(2000);  // windowed p99 way above 100

  const std::vector<TimelineWindow> w = tl.Windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_FALSE(w[0].slo[0].violated);
  EXPECT_DOUBLE_EQ(w[0].slo[0].value, 0.0);
  EXPECT_TRUE(w[1].slo[0].violated);
  EXPECT_GT(w[1].slo[0].value, 100.0);
  EXPECT_EQ(r.GetCounter("slo.violations.lat_p99")->value(), 1u);
}

TEST(TimeSeriesSlo, GaugeDutyRuleLooksAcrossTrailingWindows) {
  Registry r;
  std::atomic<int64_t> open{0};
  CellList cells(&r);
  cells.AddGauge("breaker", open);
  TimeSeriesSampler& tl = r.timeline();
  SloRule rule;
  rule.name = "breaker_duty";
  rule.kind = SloRule::Kind::kGaugeDuty;
  rule.metric = "breaker";
  rule.threshold = 0.5;  // violated when open more than half the time
  rule.duty_windows = 4;
  tl.AddRule(rule);
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);

  // Windows 0-1 closed, 2-4 open: the duty over the trailing 4 windows
  // crosses 0.5 only at window 4 (open in 3 of the last 4).
  tl.MaybeSample(1000);
  tl.MaybeSample(2000);
  open = 1;
  tl.MaybeSample(3000);  // duty 1/3 over {0,1,2}... (window incl.)
  tl.MaybeSample(4000);  // duty 2/4
  tl.MaybeSample(5000);  // duty 3/4 -> violated

  const std::vector<TimelineWindow> w = tl.Windows();
  ASSERT_EQ(w.size(), 5u);
  EXPECT_FALSE(w[2].slo[0].violated);
  EXPECT_DOUBLE_EQ(w[3].slo[0].value, 0.5);
  EXPECT_FALSE(w[3].slo[0].violated) << "duty == threshold is not a breach";
  EXPECT_DOUBLE_EQ(w[4].slo[0].value, 0.75);
  EXPECT_TRUE(w[4].slo[0].violated);
}

TEST(TimeSeriesSlo, HealthHookTripsOnTrendAndRecoversOnCleanWindows) {
  Registry r;
  Counter* fb = r.GetCounter("fb");
  TimeSeriesSampler& tl = r.timeline();
  HealthFsm fsm(HealthFsm::Options{.failure_threshold = 2, .probe_interval = 1});
  SloRule rule;
  rule.name = "fb_rate";
  rule.kind = SloRule::Kind::kCounterRate;
  rule.metric = "fb";
  rule.threshold = 50.0;
  rule.health = &fsm;
  tl.AddRule(rule);
  tl.Enable({.window_cycles = 1000, .ring_windows = 8}, 0);

  fb->Add(1);
  tl.MaybeSample(1000);  // violation #1: streak 1, still healthy
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
  fb->Add(1);
  tl.MaybeSample(2000);  // violation #2: a *trend* — the FSM trips
  EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  EXPECT_EQ(fsm.trips(), 1u);
  tl.MaybeSample(3000);  // clean window: RecordSuccess closes the breaker
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
}

// --- Machine integration + the determinism guard ---

// A small paging-heavy SUVM workload (cache 8 pages, region 24): constant
// evictions and major faults drive both counters and histograms.
void RunSuvmWorkload(sim::Machine& machine) {
  sim::Enclave enclave(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 1 << 20;
  cfg.swapper_low_watermark = 0;
  suvm::Suvm suvm(enclave, cfg);
  sim::CpuContext& cpu = machine.cpu(0);
  const uint64_t base = ValueOrThrow(suvm.Malloc(24 * sim::kPageSize));
  uint8_t buf[256];
  Xoshiro256 rng(7);
  enclave.Enter(cpu);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t addr = base + rng.NextBelow(24) * sim::kPageSize +
                          rng.NextBelow(sim::kPageSize - sizeof(buf));
    if (i % 3 == 0) {
      rng.FillBytes(buf, sizeof(buf));
      ASSERT_TRUE(suvm.Write(&cpu, addr, buf, sizeof(buf)).ok());
    } else {
      ASSERT_TRUE(suvm.Read(&cpu, addr, buf, sizeof(buf)).ok());
    }
  }
  enclave.Exit(cpu);
}

TEST(TimeSeriesMachine, ChargeCostDrivesWindowCuts) {
  sim::Machine machine;
  machine.EnableTimeline({.window_cycles = 1u << 14, .ring_windows = 256});
  RunSuvmWorkload(machine);
  machine.CutTimeline();
  const TimeSeriesSampler& tl = machine.metrics().timeline();
  EXPECT_GT(tl.windows_recorded(), 4u)
      << "the workload spans many windows; ChargeCost must cut them";
  // Interior cuts happen at the first charge that *crosses* a boundary, so
  // each end_tsc sits at-or-past the next window_cycles multiple after its
  // start (never before it), and consecutive windows tile exactly.
  const std::vector<TimelineWindow> w = tl.Windows();
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    const uint64_t next_boundary = (w[i].start_tsc / (1u << 14) + 1)
                                   << 14;
    EXPECT_GE(w[i].end_tsc, next_boundary) << "window " << i;
    EXPECT_EQ(w[i].end_tsc, w[i + 1].start_tsc) << "windows must tile";
  }
  // Every cut window carries cycle activity (ChargeCost's live counters)...
  for (const TimelineWindow& win : w) {
    EXPECT_FALSE(win.counters.empty()) << "window " << win.index;
  }
  // ...and interior windows see the major-fault latency histogram and the
  // suvm.major_faults counter move together: the registry reads
  // Suvm::Stats in place, so a window's counter delta is its histogram count
  // (one CPU, so at most one fault straddles a cut).
  uint64_t interior_faults = 0;
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    uint64_t recorded = 0;
    for (const auto& hd : w[i].histograms) {
      if (hd.name == "suvm.major_fault_cycles") {
        recorded = hd.count;
        EXPECT_GT(hd.p99, 0.0);
      }
    }
    const uint64_t delta = w[i].CounterDelta("suvm.major_faults");
    EXPECT_LE(delta, recorded + 1) << "window " << i;
    EXPECT_LE(recorded, delta + 1) << "window " << i;
    interior_faults += delta;
  }
  EXPECT_GT(interior_faults, 0u);
}

uint64_t SnapshotCounter(const Registry& r, const std::string& name) {
  for (const auto& [n, v] : r.TakeSnapshot().counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

// Two enclaves on one Machine, each with its own Suvm, take faults on two OS
// threads while a third snapshots the registry in a loop. No export call
// runs in between: every snapshot's suvm.major_faults is at least the
// previous one, at quiescence it is the sum of both instances, and
// destroying one instance leaves it unchanged.
TEST(TimeSeriesMachine, TwoEnclavesSumLiveAndNeverGoBackwards) {
  sim::Machine machine;
  sim::Enclave e1(machine);
  sim::Enclave e2(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 1 << 20;
  cfg.swapper_low_watermark = 0;
  auto s1 = std::make_unique<suvm::Suvm>(e1, cfg);
  auto s2 = std::make_unique<suvm::Suvm>(e2, cfg);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<bool> went_backwards{false};
  std::thread snapshotter([&] {
    uint64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t v = SnapshotCounter(machine.metrics(), "suvm.major_faults");
      if (v < prev) {
        went_backwards.store(true);
      }
      prev = v;
      snapshots.fetch_add(1);
    }
  });
  const auto fault = [&machine](suvm::Suvm& s, size_t cpu_id, uint64_t seed) {
    sim::CpuContext& cpu = machine.cpu(cpu_id);
    const uint64_t base = ValueOrThrow(s.Malloc(24 * sim::kPageSize));
    uint8_t buf[64] = {};
    Xoshiro256 rng(seed);
    for (int i = 0; i < 1500; ++i) {
      const uint64_t addr = base + rng.NextBelow(24) * sim::kPageSize;
      ThrowIfError(i % 3 == 0 ? s.Write(&cpu, addr, buf, sizeof(buf))
                              : s.Read(&cpu, addr, buf, sizeof(buf)));
    }
  };
  std::thread t1([&] { fault(*s1, 0, 11); });
  std::thread t2([&] { fault(*s2, 1, 12); });
  t1.join();
  t2.join();
  while (snapshots.load() < 2) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  snapshotter.join();
  EXPECT_FALSE(went_backwards.load()) << "a snapshot went backwards";

  const uint64_t f1 = s1->stats().major_faults.load();
  const uint64_t f2 = s2->stats().major_faults.load();
  ASSERT_GT(f1, 0u);
  ASSERT_GT(f2, 0u);
  EXPECT_EQ(SnapshotCounter(machine.metrics(), "suvm.major_faults"), f1 + f2)
      << "both instances, summed, with no export call";
  s1.reset();
  EXPECT_EQ(SnapshotCounter(machine.metrics(), "suvm.major_faults"), f1 + f2)
      << "a destroyed instance's faults stay counted";
}

// A restarted Suvm adopts its predecessor's backing store, whose
// suvm.backing_bad_frees cell outlives the instance that listed it. The
// registry counts each bad free once, whether the instances' lives overlap
// or follow each other.
TEST(TimeSeriesMachine, AdoptedBackingStoreCountsOnce) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 1 << 20;
  const uint64_t kBogus = 12345;  // names no live allocation
  const auto bad_frees = [&machine] {
    return SnapshotCounter(machine.metrics(), "suvm.backing_bad_frees");
  };
  auto first = std::make_unique<suvm::Suvm>(enclave, cfg);
  first->Free(kBogus);
  std::shared_ptr<suvm::BackingStore> store = first->shared_backing_store();
  auto second = std::make_unique<suvm::Suvm>(enclave, cfg, store);
  second->Free(kBogus);
  EXPECT_EQ(bad_frees(), 2u) << "overlapping lives";
  first.reset();
  second.reset();
  EXPECT_EQ(bad_frees(), 2u) << "both listers gone";
  auto third = std::make_unique<suvm::Suvm>(enclave, cfg, store);
  EXPECT_EQ(bad_frees(), 2u) << "adopted after its listers died";
  third->Free(kBogus);
  EXPECT_EQ(store->bad_frees(), 3u);
  EXPECT_EQ(bad_frees(), 3u);
}

TEST(TimeSeriesMachine, SamplerOnIsByteIdenticalToSamplerOff) {
  // The determinism guard pinned by the header comment: sampling charges
  // zero virtual cycles and perturbs no metric, so the identical workload
  // with the sampler on ends at the same virtual clock with a byte-equal
  // Registry snapshot. (SLO rules fire only on violations; this benign
  // workload has none — both runs agree the slo counters stay zero.)
  sim::Machine with_timeline, without;
  with_timeline.EnableTimeline({.window_cycles = 1u << 14, .ring_windows = 64});
  RunSuvmWorkload(with_timeline);
  RunSuvmWorkload(without);
  EXPECT_EQ(with_timeline.cpu(0).clock.now(), without.cpu(0).clock.now())
      << "sampling must charge zero virtual cycles";
  EXPECT_GT(with_timeline.metrics().timeline().windows_recorded(), 0u);
  EXPECT_EQ(with_timeline.metrics().ToJson(), without.metrics().ToJson())
      << "sampling must not perturb the metric snapshot";
}

}  // namespace
}  // namespace eleos::telemetry
