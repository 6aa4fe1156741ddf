// Copyright (c) Eleos reproduction authors. MIT license.
//
// Virtual-clock-driven time-series sampling over the metric Registry.
//
// Eleos's claims are *rate* claims — exits avoided, faults served, fallbacks
// taken per unit time — but end-of-run snapshots collapse the time dimension.
// The TimeSeriesSampler restores it: every `window_cycles` of virtual time it
// cuts a TimelineWindow holding the per-counter deltas (→ rates), the
// point-in-time gauge levels, and windowed histogram percentiles computed
// from log2-bucket deltas, into a bounded ring (oldest windows dropped, and
// counted, once the ring is full).
//
// Cost discipline mirrors SpanTracer: the sampler is off by default and a
// disabled (or mid-window) MaybeSample is one relaxed atomic load. Cutting a
// window happens on whichever simulated CPU's clock crosses the boundary
// first and charges **zero virtual cycles** — sampling changes observability,
// never the simulation (tests/timeseries_test.cc pins this byte-for-byte).
// Window boundaries therefore follow the fastest virtual clock; per-window
// deltas still aggregate every CPU's metrics.
//
// The sampler doubles as the SLO watchdog: declarative SloRules are evaluated
// at each cut against the freshly computed window. A violated rule records a
// kSloViolation trace event, bumps slo.violations{,.<rule>} counters, and —
// opt-in — feeds a HealthFsm (violation => RecordFailure, clean window =>
// RecordSuccess), so a breaker can trip on a *trend* rather than a single
// failure.
//
// Deadlock rule: Cut runs inside Machine::ChargeCost, i.e. potentially under
// component locks (SUVM stripes, job-queue slots). It therefore reads the
// Registry only through TakeSnapshot, which takes the registration mutex and
// relaxed-loads every metric, the component cells listed with it included,
// and never calls into a component. Every window thus carries each metric's
// true delta and level, whichever window it happened in.

#ifndef ELEOS_SRC_TELEMETRY_TIMESERIES_H_
#define ELEOS_SRC_TELEMETRY_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/health.h"
#include "src/telemetry/telemetry.h"

namespace eleos::telemetry {

// One cut window. Self-contained (owns its strings) so the ring survives the
// metrics evolving underneath it. Counter entries are name-sorted and hold
// the *delta* across the window; gauges hold the level observed at the cut.
struct TimelineWindow {
  uint64_t index = 0;      // monotonic cut number (survives ring drops)
  uint64_t start_tsc = 0;  // previous cut's virtual-cycle timestamp
  uint64_t end_tsc = 0;    // this cut's virtual-cycle timestamp

  std::vector<std::pair<std::string, uint64_t>> counters;  // nonzero deltas
  std::vector<std::pair<std::string, int64_t>> gauges;     // levels at cut

  struct HistDelta {
    std::string name;
    uint64_t count = 0;  // samples recorded inside this window
    double p50 = 0.0;    // windowed percentiles from the bucket deltas
    double p95 = 0.0;
    double p99 = 0.0;
  };
  std::vector<HistDelta> histograms;  // count > 0 only

  struct SloEval {
    std::string rule;
    double value = 0.0;
    double threshold = 0.0;
    bool violated = false;
  };
  std::vector<SloEval> slo;  // every registered rule, evaluated at the cut

  uint64_t duration() const { return end_tsc - start_tsc; }
  // Delta of `name` across the window (0 when absent, i.e. no change).
  uint64_t CounterDelta(const std::string& name) const;
  // Delta normalized to events per million virtual cycles.
  double RatePerMCycle(const std::string& name) const;
  // Gauge level at the cut; `found` (optional) reports presence.
  int64_t GaugeAt(const std::string& name, bool* found = nullptr) const;
};

// A declarative per-window SLO. Evaluated at every cut; see TimeSeriesSampler
// class comment for what a violation emits.
struct SloRule {
  enum class Kind {
    // delta(metric) per million cycles of window > threshold.
    kCounterRate,
    // windowed p99 of histogram `metric` > threshold (windows with no
    // samples evaluate to 0 and never violate).
    kHistogramP99,
    // fraction of the trailing `duty_windows` windows (including this one)
    // in which gauge `metric` != 0 exceeds threshold. Captures "the breaker
    // has been open most of the time", not "the breaker is open right now".
    kGaugeDuty,
  };

  std::string name;    // rule identifier: slo.violations.<name>, trace arg
  Kind kind = Kind::kCounterRate;
  std::string metric;  // counter / histogram / gauge name, per kind
  double threshold = 0.0;
  size_t duty_windows = 8;  // kGaugeDuty lookback (>= 1)
  // Opt-in health hook: violation => RecordFailure, clean window =>
  // RecordSuccess. The FSM must outlive the rule (remove the rule in the
  // owner's destructor).
  HealthFsm* health = nullptr;
};

class TimeSeriesSampler {
 public:
  struct Options {
    uint64_t window_cycles = uint64_t{1} << 20;  // ~1M-cycle windows
    size_t ring_windows = 64;                    // bounded history
  };

  explicit TimeSeriesSampler(Registry* registry);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Starts sampling; `now` anchors the first window (cuts land on multiples
  // of window_cycles from 0, so deterministic replays cut identically).
  // Re-enabling resets the ring and the delta baseline.
  void Enable(Options options, uint64_t now = 0);
  void Enable() { Enable(Options{}, 0); }
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Registers a rule; returns an id for RemoveRule. Rules registered while
  // disabled are kept and evaluated once sampling starts (components add
  // their rules at construction, unconditionally, so metric registration is
  // deterministic whether or not the timeline is on).
  size_t AddRule(SloRule rule);
  void RemoveRule(size_t id);

  // The ChargeCost hook. Hot path: one relaxed load when disabled or
  // mid-window; the boundary crossing takes the sampler mutex and cuts.
  void MaybeSample(uint64_t now) {
    if (!enabled_.load(std::memory_order_relaxed)) {
      return;
    }
    if (now < next_cut_.load(std::memory_order_relaxed)) {
      return;
    }
    Cut(now);
  }

  // Flushes the open partial window (end-of-run / flight dump). No-op when
  // disabled or when no cycles elapsed since the last cut.
  void ForceCut(uint64_t now);

  // Ring contents, oldest first.
  std::vector<TimelineWindow> Windows() const;
  uint64_t windows_recorded() const;  // total cuts (>= ring size)
  uint64_t windows_dropped() const;   // cuts evicted from the ring
  uint64_t window_cycles() const;

  // The bench-JSON `timeline` block: {"window_cycles":..,"windows_recorded":
  // ..,"windows_dropped":..,"windows":[...]} with at most the `max_windows`
  // most recent windows embedded.
  std::string ToJson(size_t max_windows = static_cast<size_t>(-1)) const;

 private:
  void Cut(uint64_t now);  // slow path of MaybeSample
  void CutLocked(uint64_t now);
  void EvaluateSlosLocked(TimelineWindow* w);

  Registry* const registry_;
  std::atomic<bool> enabled_{false};
  // Next window boundary; UINT64_MAX while disabled so a racing MaybeSample
  // that passed the enabled check can never cut.
  std::atomic<uint64_t> next_cut_{UINT64_MAX};

  mutable std::mutex mutex_;  // guards everything below
  Options options_;
  uint64_t last_cut_tsc_ = 0;
  uint64_t windows_recorded_ = 0;
  uint64_t windows_dropped_ = 0;
  MetricsSnapshot last_;  // cumulative baseline for the next delta
  std::deque<TimelineWindow> ring_;
  struct Rule {
    size_t id;
    SloRule rule;
    Counter* violations;  // slo.violations.<name>, resolved at AddRule
  };
  std::vector<Rule> rules_;
  size_t next_rule_id_ = 0;
  Counter* violations_total_ = nullptr;  // slo.violations, lazily resolved
};

// Serializes one window as a JSON object (shared by ToJson and the flight
// recorder; exposed for tests).
std::string TimelineWindowToJson(const TimelineWindow& w);

}  // namespace eleos::telemetry

#endif  // ELEOS_SRC_TELEMETRY_TIMESERIES_H_
