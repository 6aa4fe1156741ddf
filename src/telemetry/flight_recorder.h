// Copyright (c) Eleos reproduction authors. MIT license.
//
// Post-mortem flight recorder: on terminal failure (injected host crash,
// quarantine trip, soak-harness assert) dump everything the telemetry stack
// knows into one self-contained JSON bundle, so a failed seeded soak is
// debuggable from CI artifacts without re-running it.
//
// A bundle holds, in one file:
//   * the last K timeline windows (rates + windowed percentiles + SLO
//     evaluations — the "what was trending before it died" view),
//   * the trace-ring tail (the discrete anomaly events around the failure),
//   * every thread's open-span stack (what each simulated CPU / worker was
//     *in the middle of*),
//   * the health FSM states registered by components (breaker, SUVM alloc),
//   * a full metric snapshot (Registry::ToJson).
//
// The recorder is inert unless a directory is configured: either explicitly
// (set_dir) or via the ELEOS_FLIGHT_DIR environment variable, which is how
// the soak harnesses and CI opt in without touching the binaries. Dump() on
// an unconfigured recorder returns "" and writes nothing, so wiring the
// harness hooks costs passing runs nothing.
//
// Callers should prefer sim::Machine::DumpFlight, which flushes the open
// timeline window first; a bare Dump() leaves it out. The open-span stacks are owner-thread data read without
// the owner's cooperation — a post-mortem best-effort view, valid when the
// workload is dead or quiesced (which is when flight dumps happen).

#ifndef ELEOS_SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define ELEOS_SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace eleos::telemetry {

class FlightRecorder {
 public:
  struct Options {
    size_t timeline_windows = 16;  // last K windows embedded in the bundle
    size_t trace_tail = 128;       // most recent ring events embedded
  };

  explicit FlightRecorder(Registry* registry);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_options(Options options);

  // Explicit output directory; overrides ELEOS_FLIGHT_DIR. Empty string
  // reverts to the environment variable.
  void set_dir(std::string dir);
  // Effective output directory ("" when unconfigured → Dump is a no-op).
  std::string dir() const;
  bool configured() const { return !dir().empty(); }

  // Components register a named health-state source (e.g. "rpc.breaker" →
  // HealthStateName(fsm.state())); remove it in the destructor. The bundle's
  // "health" object is built from these at dump time.
  size_t AddHealthSource(std::string name, std::function<std::string()> fn);
  void RemoveHealthSource(size_t id);

  // Writes <dir>/FLIGHT_<reason>_<seq>.json (reason sanitized to
  // [a-z0-9_]) and returns its path; "" when unconfigured or on I/O error.
  // `now` stamps the bundle (use the maximum virtual clock).
  std::string Dump(const std::string& reason, uint64_t now);

  // The bundle body, without touching the filesystem (tests, custom sinks).
  std::string BundleJson(const std::string& reason, uint64_t now) const;

  uint64_t dumps() const;  // successful Dump() count

 private:
  Registry* const registry_;
  mutable std::mutex mutex_;
  Options options_;
  std::string dir_override_;
  std::vector<std::pair<size_t, std::pair<std::string,
                                          std::function<std::string()>>>>
      health_sources_;
  size_t next_source_id_ = 0;
  uint64_t seq_ = 0;
  uint64_t dumps_ = 0;
};

}  // namespace eleos::telemetry

#endif  // ELEOS_SRC_TELEMETRY_FLIGHT_RECORDER_H_
