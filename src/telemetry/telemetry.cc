// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/telemetry/telemetry.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <type_traits>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/timeseries.h"

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

// Metric names are [a-z0-9._] identifiers, so escaping is a formality; keep
// it anyway so an odd name can never produce malformed JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// One histogram as a JSON object: count/sum/mean/p50/p95/p99 and the
// non-empty buckets.
std::string HistogramToJson(const HistogramState& h) {
  std::string out = "{";
  const double mean = h.count == 0 ? 0.0
                                   : static_cast<double>(h.sum) /
                                         static_cast<double>(h.count);
  AppendF(out, "\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"mean\":%.1f",
          h.count, h.sum, mean);
  AppendF(out, ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f",
          PercentileFromBuckets(h.buckets, 50),
          PercentileFromBuckets(h.buckets, 95),
          PercentileFromBuckets(h.buckets, 99));
  out += ",\"buckets\":[";
  bool first = true;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    const uint64_t c = h.buckets[b];
    if (c == 0) {
      continue;
    }
    if (!first) {
      out += ',';
    }
    first = false;
    AppendF(out, "{\"lower\":%" PRIu64 ",\"count\":%" PRIu64 "}",
            Histogram::BucketLower(b), c);
  }
  out += "]}";
  return out;
}

// The `"name":value,...` body of one name-sorted snapshot section.
template <typename T>
void AppendSection(std::string& out,
                   const std::vector<std::pair<std::string, T>>& section) {
  bool first = true;
  for (const auto& [name, value] : section) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendF(out, "\"%s\":", JsonEscape(name).c_str());
    if constexpr (std::is_same_v<T, HistogramState>) {
      out += HistogramToJson(value);
    } else if constexpr (std::is_signed_v<T>) {
      AppendF(out, "%" PRId64, value);
    } else {
      AppendF(out, "%" PRIu64, value);
    }
  }
}

}  // namespace

double PercentileFromBuckets(const uint64_t buckets[Histogram::kBuckets],
                             double p) {
  uint64_t n = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    n += buckets[b];
  }
  if (n == 0) {
    return 0.0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 100.0) {
    p = 100.0;
  }
  // The sample with (1-based) rank ceil(p/100 * n).
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    const uint64_t c = buckets[b];
    if (c == 0) {
      continue;
    }
    if (seen + c >= rank) {
      // Linear interpolation inside the bucket's value range.
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(c);
      const double lo = static_cast<double>(Histogram::BucketLower(b));
      const double hi = static_cast<double>(Histogram::BucketUpper(b));
      return lo + (hi - lo) * frac;
    }
    seen += c;
  }
  return static_cast<double>(Histogram::BucketUpper(Histogram::kBuckets - 1));
}

double Histogram::Percentile(double p) const {
  uint64_t counts[kBuckets];
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = bucket(b);
  }
  return PercentileFromBuckets(counts, p);
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSuvmMajorFault:
      return "suvm_major_fault";
    case TraceKind::kSuvmEvictWriteback:
      return "suvm_evict_writeback";
    case TraceKind::kSuvmEvictCleanDrop:
      return "suvm_evict_clean_drop";
    case TraceKind::kSuvmMacFailure:
      return "suvm_mac_failure";
    case TraceKind::kRpcFallbackOcall:
      return "rpc_fallback_ocall";
    case TraceKind::kRpcWorkerRespawn:
      return "rpc_worker_respawn";
    case TraceKind::kSuvmBalloonResize:
      return "suvm_balloon_resize";
    case TraceKind::kRpcBreakerOpen:
      return "rpc_breaker_open";
    case TraceKind::kRpcBreakerClose:
      return "rpc_breaker_close";
    case TraceKind::kSuvmPageQuarantined:
      return "suvm_page_quarantined";
    case TraceKind::kSuvmPageRestored:
      return "suvm_page_restored";
    case TraceKind::kSuvmHostCrash:
      return "suvm_host_crash";
    case TraceKind::kSuvmCheckpoint:
      return "suvm_checkpoint";
    case TraceKind::kSuvmJournalReplay:
      return "suvm_journal_replay";
    case TraceKind::kSuvmRecovery:
      return "suvm_recovery";
    case TraceKind::kSuvmHealthChange:
      return "suvm_health_change";
    case TraceKind::kBoundaryReject:
      return "boundary_reject";
    case TraceKind::kSloViolation:
      return "slo_violation";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void TraceRing::Record(TraceKind kind, uint64_t tsc, uint64_t arg0,
                       uint64_t arg1) {
  // Resolve the causal context before taking the ring lock: CurrentContext
  // only touches the recording thread's own span stack.
  uint64_t tid = 0;
  uint64_t span_id = 0;
  if (span_source_ != nullptr) {
    span_source_->CurrentContext(&tid, &span_id);
  }
  std::lock_guard guard(lock_);
  TraceEvent& e = ring_[next_seq_ % ring_.size()];
  e.seq = next_seq_++;
  e.tsc = tsc;
  e.kind = kind;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.tid = tid;
  e.span_id = span_id;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::lock_guard guard(lock_);
  const size_t n = next_seq_ < ring_.size() ? next_seq_ : ring_.size();
  std::vector<TraceEvent> out;
  out.reserve(n);
  const uint64_t first = next_seq_ - n;
  for (uint64_t s = first; s < next_seq_; ++s) {
    out.push_back(ring_[s % ring_.size()]);
  }
  return out;
}

uint64_t TraceRing::recorded() const {
  std::lock_guard guard(lock_);
  return next_seq_;
}

uint64_t TraceRing::dropped() const {
  std::lock_guard guard(lock_);
  return next_seq_ < ring_.size() ? 0 : next_seq_ - ring_.size();
}

void TraceRing::Reset() {
  std::lock_guard guard(lock_);
  next_seq_ = 0;
}

Registry::Registry() {
  trace_.set_span_source(&spans_);
  timeline_ = std::make_unique<TimeSeriesSampler>(this);
  flight_ = std::make_unique<FlightRecorder>(this);
}

Registry::~Registry() = default;

TimeSeriesSampler& Registry::timeline() { return *timeline_; }
const TimeSeriesSampler& Registry::timeline() const { return *timeline_; }
FlightRecorder& Registry::flight() { return *flight_; }
const FlightRecorder& Registry::flight() const { return *flight_; }

uint64_t Registry::Sum(const std::vector<Listed>& listed) {
  uint64_t v = 0;
  for (const Listed& l : listed) {
    v += l.cell.load() - l.base;
  }
  return v;
}

MetricsSnapshot Registry::TakeSnapshot() const {
  std::lock_guard guard(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.owned.value() + Sum(c.listed));
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, listed] : gauges_) {
    snap.gauges.emplace_back(name, static_cast<int64_t>(Sum(listed)));
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramState state;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      state.buckets[b] = h->bucket(b);
    }
    state.count = h->count();
    state.sum = h->sum();
    snap.histograms.emplace_back(name, state);
  }
  return snap;
}

uint64_t Registry::CounterValue(const std::string& name) const {
  std::lock_guard guard(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  return it->second.owned.value() + Sum(it->second.listed);
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard guard(mutex_);
  return &counters_[name].owned;
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard guard(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void Registry::List(const std::string& name, Cell cell, bool gauge) {
  std::lock_guard guard(mutex_);
  std::vector<Listed>& listed = gauge ? gauges_[name] : counters_[name].listed;
  for (Listed& l : listed) {
    if (l.cell.ptr() == cell.ptr()) {
      ++l.refs;
      return;
    }
  }
  listed.push_back(Listed{cell, gauge ? 0 : cell.load(), 1});
}

void Registry::Unlist(const std::string& name, Cell cell, bool gauge) {
  std::lock_guard guard(mutex_);
  std::vector<Listed>& listed = gauge ? gauges_[name] : counters_[name].listed;
  for (auto it = listed.begin(); it != listed.end(); ++it) {
    if (it->cell.ptr() != cell.ptr() || --it->refs != 0) {
      continue;
    }
    if (!gauge) {  // fold the gain in: the machine-wide value stays put
      counters_[name].owned.Add(it->cell.load() - it->base);
    }
    listed.erase(it);
    if (gauge && listed.empty()) {
      gauges_.erase(name);  // no component holds this level any more
    }
    return;
  }
}

void CellList::Add(const char* name, Cell cell, bool gauge) {
  if (registry_ != nullptr) {
    registry_->List(name, cell, gauge);
    entries_.push_back(Entry{name, cell, gauge});
  }
}

CellList::~CellList() {
  for (const Entry& e : entries_) {
    registry_->Unlist(e.name, e.cell, e.gauge);
  }
}

std::string Registry::ToJson(size_t trace_events) const {
  const MetricsSnapshot snap = TakeSnapshot();
  std::string out = "{\"counters\":{";
  AppendSection(out, snap.counters);
  out += "},\"gauges\":{";
  AppendSection(out, snap.gauges);
  out += "},\"histograms\":{";
  AppendSection(out, snap.histograms);
  out += "},\"trace\":{";
  AppendF(out, "\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64 ",\"events\":[",
          trace_.recorded(), trace_.dropped());
  std::vector<TraceEvent> events = trace_.Snapshot();
  const size_t start =
      events.size() > trace_events ? events.size() - trace_events : 0;
  for (size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != start) {
      out += ',';
    }
    AppendF(out,
            "{\"seq\":%" PRIu64 ",\"tsc\":%" PRIu64
            ",\"kind\":\"%s\",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64
            ",\"tid\":%" PRIu64 ",\"span_id\":%" PRIu64 "}",
            e.seq, e.tsc, TraceKindName(e.kind), e.arg0, e.arg1, e.tid,
            e.span_id);
  }
  out += "]}}";
  return out;
}

}  // namespace eleos::telemetry
