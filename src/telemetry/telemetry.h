// Copyright (c) Eleos reproduction authors. MIT license.
//
// Lightweight in-enclave observability: named counters, fixed-bucket (log2)
// latency histograms, and a bounded trace ring for paging/RPC events.
//
// Design constraints (the paper's claims are quantitative, so measurement
// must not distort them):
//  * Recording a counter or histogram sample is lock-free — a handful of
//    relaxed atomic adds, no branches beyond the bucket index. Safe to call
//    from enclave threads and untrusted workers concurrently.
//  * Metric registration (GetCounter/GetHistogram) is the cold path and takes
//    a mutex; components resolve their metric pointers once at construction
//    and keep them for their lifetime. Pointers are stable until the Registry
//    dies (the Registry must outlive every component that records into it —
//    in practice it is owned by sim::Machine, the root object).
//  * A component that keeps the atomic behind a metric (Suvm::Stats, the RPC
//    queue counters, occupancy levels) lists it (CellList) instead of copying
//    it: snapshots read it in place, so each metric has one store.
//  * The trace ring is bounded (overwrites oldest) and spinlocked: trace
//    events are rare (major faults, evictions, RPC fallbacks), never
//    per-memory-access.
//
// Snapshots (TakeSnapshot, ToJson) are racy-but-consistent-enough: relaxed
// loads of monotonic values and levels, which is all the harness needs.

#ifndef ELEOS_SRC_TELEMETRY_TELEMETRY_H_
#define ELEOS_SRC_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/spinlock.h"
#include "src/telemetry/span.h"

namespace eleos::telemetry {

class TimeSeriesSampler;  // src/telemetry/timeseries.h
class FlightRecorder;     // src/telemetry/flight_recorder.h

// Monotonic event counter, safe to bump from enclave threads and untrusted
// workers at once. The Registry owns one per name (GetCounter), and
// components own theirs and list cell() under a name (CellList). value() is
// this cell alone; Registry::CounterValue adds the cells listed under the
// name. Levels that move both ways are gauges: always component cells, in a
// JSON section of their own, so counters can be checked for monotonicity.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // The atomic itself, for a registry that reads it in place.
  const std::atomic<uint64_t>& cell() const { return value_; }

 private:
  std::atomic<uint64_t> value_{0};
};

// Log2-bucketed histogram: bucket b counts samples v with bit_width(v) == b,
// i.e. bucket 0 holds v == 0 and bucket b >= 1 holds [2^(b-1), 2^b).
// 65 buckets cover the full uint64 range. Percentiles interpolate linearly
// inside the winning bucket, so p50/p95/p99 carry at worst a 2x quantization
// error — adequate for latency *distributions* (orders of magnitude and tail
// shifts), which is what adaptive policies consume.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v) {
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Percentile estimate (p in [0, 100]) from the bucket counts.
  // Equivalent to PercentileFromBuckets over a relaxed snapshot of buckets_.
  double Percentile(double p) const;

  static size_t BucketFor(uint64_t v) {
    size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  // [lower, upper) value range of bucket b.
  static uint64_t BucketLower(size_t b) {
    return b == 0 ? 0 : (b == 1 ? 1 : 1ull << (b - 1));
  }
  static uint64_t BucketUpper(size_t b) {
    return b == 0 ? 1 : (b >= 64 ? UINT64_MAX : 1ull << b);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Event kinds recorded into the trace ring. Kept coarse on purpose: the ring
// answers "what was the system doing around this anomaly", not "every access".
enum class TraceKind : uint32_t {
  kSuvmMajorFault = 0,
  kSuvmEvictWriteback = 1,
  kSuvmEvictCleanDrop = 2,
  kSuvmMacFailure = 3,
  kRpcFallbackOcall = 4,
  kRpcWorkerRespawn = 5,
  kSuvmBalloonResize = 6,
  // Self-healing layer (health FSMs).
  kRpcBreakerOpen = 7,       // breaker tripped: calls short-circuit to OCALL
  kRpcBreakerClose = 8,      // canary probe succeeded: exit-less path restored
  kSuvmPageQuarantined = 9,  // page poisoned after the retry failed too
  kSuvmPageRestored = 10,    // TryRestorePage successfully unpoisoned a page
  kSuvmHealthChange = 11,    // SUVM alloc health FSM changed state (arg1)
  // Crash consistency (journaled backing store + checkpoint/restore).
  kSuvmHostCrash = 12,       // injected host crash (arg0 = 2PC window index)
  kSuvmCheckpoint = 13,      // sealed root written (arg0 = pages, arg1 = seq)
  kSuvmJournalReplay = 14,   // journal replayed (arg0 = applied, arg1 = torn)
  kSuvmRecovery = 15,        // recovery finished (arg0 = verified, arg1 = quarantined)
  // Untrusted-memory boundary (DESIGN.md §12).
  kBoundaryReject = 16,      // hostile shared value rejected (arg0 = site)
  // Time-series SLO watchdog (DESIGN.md §13).
  kSloViolation = 17,        // windowed SLO rule violated (arg0 = rule id,
                             // arg1 = observed value, truncated)
};

const char* TraceKindName(TraceKind kind);

struct TraceEvent {
  uint64_t seq = 0;    // global sequence number (monotonic)
  uint64_t tsc = 0;    // recording CPU's virtual-cycle clock (0 if unbound)
  TraceKind kind = TraceKind::kSuvmMajorFault;
  uint64_t arg0 = 0;   // kind-specific (e.g. bs_page, slot, io_bytes)
  uint64_t arg1 = 0;
  // Causal context, stamped by Record from the recording thread's innermost
  // open span (both 0 when no span is bound / tracing is off). `tid` is the
  // span's track, which is what the Chrome-trace export uses as its thread.
  uint64_t tid = 0;
  uint64_t span_id = 0;
};

// Bounded ring of recent TraceEvents; overwrites the oldest when full.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 1024);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(TraceKind kind, uint64_t tsc, uint64_t arg0 = 0,
              uint64_t arg1 = 0);

  // Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  uint64_t recorded() const;
  uint64_t dropped() const;  // recorded - retained
  size_t capacity() const { return ring_.size(); }
  void Reset();

  // Lets Record stamp tid/span_id from the caller's innermost open span.
  // Wired once by the owning Registry; null is fine (events stay unbound).
  void set_span_source(SpanTracer* spans) { span_source_ = spans; }

 private:
  mutable Spinlock lock_;
  std::vector<TraceEvent> ring_;
  uint64_t next_seq_ = 0;
  SpanTracer* span_source_ = nullptr;
};

// Point-in-time copy of one histogram's buckets (relaxed loads), the unit of
// the sampler's per-window log2-bucket-delta percentile math.
struct HistogramState {
  uint64_t buckets[Histogram::kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
};

// Point-in-time copy of every registered metric, each name's cells summed.
// Vectors are name-sorted (registry map order). Racy-but-consistent-enough.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramState>> histograms;
};

// A component-owned atomic that the Registry reads in place. Reading is one
// relaxed load, so a snapshot never takes a component lock. Any std::atomic
// of an integral or enum type converts to a Cell implicitly, so listing reads
// AddCounter("name", atomic).
class Cell {
 public:
  template <typename T>
  Cell(const std::atomic<T>& a)
      : ptr_(&a), load_([](const void* p) {
          return static_cast<uint64_t>(static_cast<const std::atomic<T>*>(p)
                                           ->load(std::memory_order_relaxed));
        }) {}

  uint64_t load() const { return load_(ptr_); }
  const void* ptr() const { return ptr_; }

 private:
  const void* ptr_;
  uint64_t (*load_)(const void*);
};

// The metric registry: owns its counters and histograms and reads the cells
// components list with it (CellList); names are stable identifiers (see
// DESIGN.md "Telemetry" for the catalogue). Lookup interns by name, so two
// components asking for the same name share the metric.
class Registry {
 public:
  Registry();
  ~Registry();  // out-of-line: timeline/flight members are incomplete here

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }
  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }
  // Virtual-clock time-series sampler + SLO watchdog (off by default; see
  // src/telemetry/timeseries.h). Machine::ChargeCost drives it.
  TimeSeriesSampler& timeline();
  const TimeSeriesSampler& timeline() const;
  // Post-mortem bundle writer (inert until ELEOS_FLIGHT_DIR / set_dir; see
  // src/telemetry/flight_recorder.h).
  FlightRecorder& flight();
  const FlightRecorder& flight() const;

  // Machine-wide value of one counter name: the registry-owned counter plus
  // every cell listed under it (0 for an unknown name).
  uint64_t CounterValue(const std::string& name) const;

  // Copies every metric's current value (relaxed loads, listed cells summed
  // into their name) under the registration mutex only — safe to call from
  // inside ChargeCost, i.e. potentially under component locks.
  MetricsSnapshot TakeSnapshot() const;

  // JSON object {"counters":{...},"gauges":{...},"histograms":{...},
  // "trace":{...}} built from TakeSnapshot, keys sorted by name.
  // `trace_events` bounds the number of (most recent) events embedded.
  std::string ToJson(size_t trace_events = 64) const;

 private:
  friend class CellList;

  // One cell listed under a name (see CellList for the rules). A counter
  // cell's `base` is its value when first listed, so a cell that outlives
  // its lister (an adopted backing store) never counts twice; a gauge's is 0.
  // Listing a cell again while it is listed takes another reference.
  struct Listed {
    Cell cell;
    uint64_t base;
    size_t refs;
  };
  struct CounterCells {
    Counter owned;  // GetCounter's cell; also keeps unlisted cells' gains
    std::vector<Listed> listed;
  };

  void List(const std::string& name, Cell cell, bool gauge);
  void Unlist(const std::string& name, Cell cell, bool gauge);
  // What the cells gained since listing, summed (wraps for negative levels).
  static uint64_t Sum(const std::vector<Listed>& listed);

  mutable std::mutex mutex_;  // registration + snapshot iteration only
  std::map<std::string, CounterCells> counters_;
  std::map<std::string, std::vector<Listed>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Declared before trace_: the ring holds a pointer into the tracer, so the
  // tracer must be constructed first and destroyed last.
  SpanTracer spans_;
  TraceRing trace_;
  // Declared (and thus destroyed) after everything they observe. unique_ptr
  // keeps telemetry.h free of the timeseries/flight_recorder headers, which
  // include this one.
  std::unique_ptr<TimeSeriesSampler> timeline_;
  std::unique_ptr<FlightRecorder> flight_;
};

// The cells one component lists with a Registry. Snapshots sum the cells
// that share a name (two Suvms on one machine add up). A counter cell counts
// what it gained while listed and unlisting folds that into the name, so a
// machine-wide counter never goes backwards; an unlisted gauge drops out; a
// cell listed twice under one name counts once. The list unlists all when it
// dies: declare it after its cells, and join their writer threads first. A
// null registry makes it inert (a bare JobQueue in a test).
class CellList {
 public:
  explicit CellList(Registry* registry) : registry_(registry) {}
  ~CellList();

  CellList(const CellList&) = delete;
  CellList& operator=(const CellList&) = delete;

  // `name` must outlive the list (a string literal).
  void AddCounter(const char* name, Cell cell) { Add(name, cell, false); }
  void AddGauge(const char* name, Cell cell) { Add(name, cell, true); }

 private:
  struct Entry {
    const char* name;
    Cell cell;
    bool gauge;
  };
  void Add(const char* name, Cell cell, bool gauge);

  Registry* const registry_;
  std::vector<Entry> entries_;
};

// Percentile estimate (p in [0, 100]) from plain log2 bucket counts with
// Histogram's bucket semantics: linear interpolation inside the winning
// bucket, 0.0 when the buckets are empty. Shared by Histogram::Percentile
// (cumulative counts) and the time-series sampler (per-window bucket
// deltas).
double PercentileFromBuckets(const uint64_t buckets[Histogram::kBuckets],
                             double p);

}  // namespace eleos::telemetry

#endif  // ELEOS_SRC_TELEMETRY_TELEMETRY_H_
