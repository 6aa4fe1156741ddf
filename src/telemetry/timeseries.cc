// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/telemetry/timeseries.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace eleos::telemetry {
namespace {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

// Doubles in the timeline block are emitted with %.6g: enough precision for
// rates and percentiles, and stable across platforms for the byte-identity
// determinism guard.
void AppendDouble(std::string& out, double v) { AppendF(out, "%.6g", v); }

template <typename T>
const T* FindSorted(const std::vector<std::pair<std::string, T>>& v,
                    const std::string& name) {
  auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const std::pair<std::string, T>& e, const std::string& n) {
        return e.first < n;
      });
  if (it == v.end() || it->first != name) {
    return nullptr;
  }
  return &it->second;
}

}  // namespace

uint64_t TimelineWindow::CounterDelta(const std::string& name) const {
  const uint64_t* d = FindSorted(counters, name);
  return d == nullptr ? 0 : *d;
}

double TimelineWindow::RatePerMCycle(const std::string& name) const {
  const uint64_t dur = duration();
  if (dur == 0) {
    return 0.0;
  }
  return static_cast<double>(CounterDelta(name)) / static_cast<double>(dur) *
         1e6;
}

int64_t TimelineWindow::GaugeAt(const std::string& name, bool* found) const {
  const int64_t* g = FindSorted(gauges, name);
  if (found != nullptr) {
    *found = g != nullptr;
  }
  return g == nullptr ? 0 : *g;
}

TimeSeriesSampler::TimeSeriesSampler(Registry* registry)
    : registry_(registry) {}

void TimeSeriesSampler::Enable(Options options, uint64_t now) {
  std::lock_guard guard(mutex_);
  options_ = options;
  if (options_.window_cycles == 0) {
    options_.window_cycles = 1;
  }
  if (options_.ring_windows == 0) {
    options_.ring_windows = 1;
  }
  ring_.clear();
  windows_recorded_ = 0;
  windows_dropped_ = 0;
  last_cut_tsc_ = now;
  last_ = registry_->TakeSnapshot();
  // Boundaries land on multiples of window_cycles from 0, so a deterministic
  // replay cuts at identical virtual timestamps regardless of when sampling
  // was enabled relative to the workload.
  const uint64_t w = options_.window_cycles;
  next_cut_.store((now / w + 1) * w, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void TimeSeriesSampler::Disable() {
  std::lock_guard guard(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  next_cut_.store(UINT64_MAX, std::memory_order_relaxed);
}

size_t TimeSeriesSampler::AddRule(SloRule rule) {
  std::lock_guard guard(mutex_);
  if (rule.duty_windows == 0) {
    rule.duty_windows = 1;
  }
  if (violations_total_ == nullptr) {
    violations_total_ = registry_->GetCounter("slo.violations");
  }
  Counter* per_rule = registry_->GetCounter("slo.violations." + rule.name);
  const size_t id = next_rule_id_++;
  rules_.push_back(Rule{id, std::move(rule), per_rule});
  return id;
}

void TimeSeriesSampler::RemoveRule(size_t id) {
  std::lock_guard guard(mutex_);
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].id == id) {
      rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void TimeSeriesSampler::Cut(uint64_t now) {
  std::lock_guard guard(mutex_);
  // Re-check under the lock: another CPU may have cut this boundary while we
  // were waiting, or Disable may have raced the enabled check.
  if (!enabled_.load(std::memory_order_relaxed) ||
      now < next_cut_.load(std::memory_order_relaxed)) {
    return;
  }
  CutLocked(now);
}

void TimeSeriesSampler::ForceCut(uint64_t now) {
  std::lock_guard guard(mutex_);
  if (!enabled_.load(std::memory_order_relaxed) || now <= last_cut_tsc_) {
    return;
  }
  CutLocked(now);
}

void TimeSeriesSampler::CutLocked(uint64_t now) {
  MetricsSnapshot cur = registry_->TakeSnapshot();

  TimelineWindow w;
  w.index = windows_recorded_;
  w.start_tsc = last_cut_tsc_;
  w.end_tsc = now;

  // Counter deltas. Both snapshots are name-sorted; a counter registered
  // mid-window simply has no baseline (prev = 0). A machine-wide counter
  // never goes backwards (no Set, no reset, and an unlisted cell folds into
  // its name), so the difference is the window's delta.
  for (const auto& [name, value] : cur.counters) {
    const uint64_t* prev = FindSorted(last_.counters, name);
    const uint64_t delta = value - (prev == nullptr ? 0 : *prev);
    if (delta != 0) {
      w.counters.emplace_back(name, delta);
    }
  }

  for (const auto& [name, value] : cur.gauges) {
    w.gauges.emplace_back(name, value);
  }

  for (const auto& [name, state] : cur.histograms) {
    const HistogramState* prev = FindSorted(last_.histograms, name);
    uint64_t deltas[Histogram::kBuckets];
    uint64_t count = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      deltas[b] = state.buckets[b] - (prev == nullptr ? 0 : prev->buckets[b]);
      count += deltas[b];
    }
    if (count == 0) {
      continue;
    }
    TimelineWindow::HistDelta hd;
    hd.name = name;
    hd.count = count;
    hd.p50 = PercentileFromBuckets(deltas, 50);
    hd.p95 = PercentileFromBuckets(deltas, 95);
    hd.p99 = PercentileFromBuckets(deltas, 99);
    w.histograms.push_back(std::move(hd));
  }

  EvaluateSlosLocked(&w);

  last_ = std::move(cur);
  last_cut_tsc_ = now;
  ++windows_recorded_;
  ring_.push_back(std::move(w));
  while (ring_.size() > options_.ring_windows) {
    ring_.pop_front();
    ++windows_dropped_;
  }
  const uint64_t wc = options_.window_cycles;
  next_cut_.store((now / wc + 1) * wc, std::memory_order_relaxed);
}

void TimeSeriesSampler::EvaluateSlosLocked(TimelineWindow* w) {
  for (const Rule& r : rules_) {
    TimelineWindow::SloEval eval;
    eval.rule = r.rule.name;
    eval.threshold = r.rule.threshold;
    switch (r.rule.kind) {
      case SloRule::Kind::kCounterRate:
        eval.value = w->RatePerMCycle(r.rule.metric);
        break;
      case SloRule::Kind::kHistogramP99: {
        eval.value = 0.0;
        for (const auto& hd : w->histograms) {
          if (hd.name == r.rule.metric) {
            eval.value = hd.p99;
            break;
          }
        }
        break;
      }
      case SloRule::Kind::kGaugeDuty: {
        // Trailing-window duty cycle of gauge != 0, this window included.
        size_t nonzero = w->GaugeAt(r.rule.metric) != 0 ? 1 : 0;
        size_t seen = 1;
        for (auto it = ring_.rbegin();
             it != ring_.rend() && seen < r.rule.duty_windows; ++it, ++seen) {
          if (it->GaugeAt(r.rule.metric) != 0) {
            ++nonzero;
          }
        }
        eval.value = static_cast<double>(nonzero) / static_cast<double>(seen);
        break;
      }
    }
    eval.violated = eval.value > r.rule.threshold;
    if (eval.violated) {
      violations_total_->Add(1);
      r.violations->Add(1);
      // arg0 = rule id, arg1 = observed value (truncated; the window JSON
      // keeps the exact double).
      registry_->trace().Record(TraceKind::kSloViolation, w->end_tsc, r.id,
                                static_cast<uint64_t>(eval.value));
      if (r.rule.health != nullptr) {
        r.rule.health->RecordFailure();
      }
    } else if (r.rule.health != nullptr) {
      r.rule.health->RecordSuccess();
    }
    w->slo.push_back(std::move(eval));
  }
}

std::vector<TimelineWindow> TimeSeriesSampler::Windows() const {
  std::lock_guard guard(mutex_);
  return {ring_.begin(), ring_.end()};
}

uint64_t TimeSeriesSampler::windows_recorded() const {
  std::lock_guard guard(mutex_);
  return windows_recorded_;
}

uint64_t TimeSeriesSampler::windows_dropped() const {
  std::lock_guard guard(mutex_);
  return windows_dropped_;
}

uint64_t TimeSeriesSampler::window_cycles() const {
  std::lock_guard guard(mutex_);
  return options_.window_cycles;
}

std::string TimelineWindowToJson(const TimelineWindow& w) {
  std::string out = "{";
  AppendF(out,
          "\"index\":%" PRIu64 ",\"start_tsc\":%" PRIu64 ",\"end_tsc\":%" PRIu64
          ",\"counters\":{",
          w.index, w.start_tsc, w.end_tsc);
  bool first = true;
  for (const auto& [name, delta] : w.counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendF(out, "\"%s\":{\"delta\":%" PRIu64 ",\"rate_per_mcycle\":",
            name.c_str(), delta);
    AppendDouble(out, w.RatePerMCycle(name));
    out += '}';
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : w.gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendF(out, "\"%s\":%" PRId64, name.c_str(), value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& hd : w.histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendF(out, "\"%s\":{\"count\":%" PRIu64 ",\"p50\":", hd.name.c_str(),
            hd.count);
    AppendDouble(out, hd.p50);
    out += ",\"p95\":";
    AppendDouble(out, hd.p95);
    out += ",\"p99\":";
    AppendDouble(out, hd.p99);
    out += '}';
  }
  out += "},\"slo\":[";
  first = true;
  for (const auto& eval : w.slo) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendF(out, "{\"rule\":\"%s\",\"value\":", eval.rule.c_str());
    AppendDouble(out, eval.value);
    out += ",\"threshold\":";
    AppendDouble(out, eval.threshold);
    AppendF(out, ",\"violated\":%s}", eval.violated ? "true" : "false");
  }
  out += "]}";
  return out;
}

std::string TimeSeriesSampler::ToJson(size_t max_windows) const {
  std::lock_guard guard(mutex_);
  std::string out = "{";
  AppendF(out,
          "\"window_cycles\":%" PRIu64 ",\"windows_recorded\":%" PRIu64
          ",\"windows_dropped\":%" PRIu64 ",\"windows\":[",
          options_.window_cycles, windows_recorded_, windows_dropped_);
  const size_t start = ring_.size() > max_windows ? ring_.size() - max_windows
                                                  : 0;
  for (size_t i = start; i < ring_.size(); ++i) {
    if (i != start) {
      out += ',';
    }
    out += TimelineWindowToJson(ring_[i]);
  }
  out += "]}";
  return out;
}

}  // namespace eleos::telemetry
