// Copyright (c) Eleos reproduction authors. MIT license.
//
// The simulated platform: cost model + LLC + EPC + SGX driver + CPUs.
//
// A Machine is the root object every experiment builds first. It owns the
// shared structures (LLC, EPC, driver) and up to kMaxCpus simulated hardware
// threads, each with a private TLB and virtual cycle clock. All accounting
// funnels through Machine::Access.

#ifndef ELEOS_SRC_SIM_MACHINE_H_
#define ELEOS_SRC_SIM_MACHINE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "src/sim/cache_model.h"
#include "src/sim/cost_model.h"
#include "src/sim/epc.h"
#include "src/sim/fault_injector.h"
#include "src/sim/sgx_driver.h"
#include "src/sim/vclock.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries.h"

namespace eleos::sim {

struct MachineConfig {
  CostModel costs{};
  size_t epc_frames = 0;  // 0 => costs.prm_usable_frames
  uint64_t fault_seed = 0xfa17;  // seed for the hostile-host fault injector
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  CostModel& costs() { return costs_; }
  const CostModel& costs() const { return costs_; }
  CacheModel& llc() { return llc_; }
  Epc& epc() { return epc_; }
  SgxDriver& driver() { return driver_; }
  // Hostile-host fault injection switchboard (disarmed by default).
  FaultInjector& fault_injector() { return fault_injector_; }
  // Machine-wide metric registry (counters, latency histograms, trace ring).
  // Components resolve their metric pointers from it at construction; the
  // bench harness snapshots it via Registry::ToJson. See DESIGN.md
  // "Telemetry" for the metric catalogue.
  telemetry::Registry& metrics() { return metrics_; }
  const telemetry::Registry& metrics() const { return metrics_; }

  // Simulated hardware threads (created eagerly; addresses are stable).
  CpuContext& cpu(size_t i) { return *cpus_[i]; }
  size_t num_cpus() const { return cpus_.size(); }

  // One memory access of `len` bytes at `addr`: charges TLB walks and cache
  // hit/miss costs per touched line to `cpu`. No-op when cpu is null.
  void Access(CpuContext* cpu, uint64_t addr, size_t len, bool write, MemKind kind);

  // Bulk sequential access (page copies in the paging paths): lines still
  // flow through the cache model (pollution is real) but the cycle charge is
  // the flat streaming rate, since hardware prefetching hides random-miss
  // latency on sequential copies.
  void StreamAccess(CpuContext* cpu, uint64_t addr, size_t len, bool write,
                    MemKind kind);

  // Models the cache pollution of kernel/syscall work: streams `bytes` of
  // untrusted lines through the cache with `cpu`'s class of service. The
  // traffic cycles within a reuse pool of `pool_bytes` (kernel buffers are
  // finite and recycled); 0 selects the default 4 MiB pool.
  void TouchScratch(CpuContext* cpu, size_t bytes, size_t pool_bytes = 0);

  // Pure cache-state pollution with an explicit class of service and no cycle
  // charge to any clock; models work done by *other* cores (RPC workers)
  // that only affects the shared LLC. Same pool semantics as TouchScratch.
  void PolluteCache(size_t bytes, int cos, size_t pool_bytes = 0);

  // Reserves a synthetic address range of `bytes` for a host buffer whose
  // accesses are charged through Access/StreamAccess, and returns its base.
  // Ranges are page-aligned, never reused, and handed out in request order
  // from one fixed base, so what a buffer costs depends on the order of the
  // reservations and never on where the host heap put the buffer.
  uint64_t ReserveRange(size_t bytes);

  // Central funnel for every categorized CostModel charge: advances `cpu`'s
  // virtual clock, bumps the matching sim.cycles.* counter, and routes the
  // cycles to the charging thread's innermost open span. The three always
  // moving in lockstep is what makes the span audit invariant structural
  // (see src/telemetry/span.h). Null cpu or zero cycles is a no-op, matching
  // the null-guard semantics every call site already had.
  void ChargeCost(CpuContext* cpu, telemetry::CostCategory cat,
                  uint64_t cycles) {
    if (cpu == nullptr || cycles == 0) {
      return;
    }
    cpu->clock.Advance(cycles);
    cycles_by_cat_[static_cast<size_t>(cat)]->Add(cycles);
    metrics_.spans().ChargeCurrent(cat, cycles);
    // Epoch hook for the time-series sampler: charges zero cycles, one
    // relaxed load when disabled or mid-window (see timeseries.h).
    timeline_->MaybeSample(cpu->clock.now());
  }

  // One-call span tracing opt-in (`audit` additionally enforces span stack
  // discipline and is meant for tests). Call before the traced workload.
  void EnableTracing(bool audit = false) { metrics_.spans().Enable(audit); }

  // One-call timeline sampling opt-in (off by default; sampling charges zero
  // virtual cycles). Call before the sampled workload.
  void EnableTimeline(telemetry::TimeSeriesSampler::Options options = {}) {
    metrics_.timeline().Enable(options, MaxClock());
  }

  // Flushes the open partial timeline window at the maximum virtual clock.
  // Call after the workload quiesced, before exporting.
  void CutTimeline() { metrics_.timeline().ForceCut(MaxClock()); }

  // Post-mortem flight bundle: flush the timeline, dump. Returns
  // the bundle path, or "" when no flight dir is configured (ELEOS_FLIGHT_DIR
  // unset and flight().set_dir not called) — so harness hooks are free on
  // passing runs. See src/telemetry/flight_recorder.h.
  std::string DumpFlight(const std::string& reason) {
    if (!metrics_.flight().configured()) {
      return "";
    }
    CutTimeline();
    return metrics_.flight().Dump(reason, MaxClock());
  }

  // The furthest-ahead virtual clock across all CPUs ("machine time").
  uint64_t MaxClock() const {
    uint64_t now = 0;
    for (const auto& cpu : cpus_) {
      if (cpu != nullptr && cpu->clock.now() > now) {
        now = cpu->clock.now();
      }
    }
    return now;
  }

  // The index of the CPU with the lowest virtual clock among the first `n`,
  // ties going to the lowest index: the simulated thread that takes the next
  // request, as the furthest-behind of `n` concurrent threads would.
  size_t LowestClockCpu(size_t n) const {
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (cpus_[i]->clock.now() < cpus_[best]->clock.now()) {
        best = i;
      }
    }
    return best;
  }

  // Runs the tracer's cycle-accounting audit against this machine's
  // sim.cycles.* totals. True on success; fills *error otherwise.
  bool AuditSpanAccounting(std::string* error) const;

  // Export the recorded spans (+ trace ring) once the workload quiesced.
  std::string ExportChromeTrace() const;
  std::string ExportFoldedStacks() const;

 private:
  CostModel costs_;
  // Declared before the driver/CPUs so metric pointers resolved by other
  // components during teardown stay valid until the very end.
  telemetry::Registry metrics_;
  CacheModel llc_;
  Epc epc_;
  SgxDriver driver_;
  FaultInjector fault_injector_;
  // sim.cycles.<category> counter per CostCategory, resolved once in the
  // constructor so ChargeCost stays a few relaxed atomics. The sampler
  // pointer is cached for the same reason.
  telemetry::Counter* cycles_by_cat_[telemetry::kNumCostCategories] = {};
  telemetry::TimeSeriesSampler* timeline_ = nullptr;
  std::array<std::unique_ptr<CpuContext>, kMaxCpus> cpus_;
  // Atomic: TouchScratch/PolluteCache may run from concurrently faulting
  // threads (their window claims race, but each claim stays exclusive).
  std::atomic<uint64_t> scratch_cursor_{0};
  std::atomic<uint64_t> range_cursor_{0};  // bytes reserved by ReserveRange
};

// RAII harness hook for the flight recorder: on scope exit, if `failed()`
// reports true (e.g. a lambda over ::testing::Test::HasFailure), dumps a
// flight bundle for `reason`. Free on passing runs and a no-op unless a
// flight dir is configured, so soak harnesses can wrap their bodies
// unconditionally.
class FlightOnFailure {
 public:
  FlightOnFailure(Machine& machine, std::string reason,
                  std::function<bool()> failed)
      : machine_(&machine),
        reason_(std::move(reason)),
        failed_(std::move(failed)) {}
  ~FlightOnFailure() {
    if (failed_ && failed_()) {
      machine_->DumpFlight(reason_);
    }
  }

  FlightOnFailure(const FlightOnFailure&) = delete;
  FlightOnFailure& operator=(const FlightOnFailure&) = delete;

 private:
  Machine* machine_;
  std::string reason_;
  std::function<bool()> failed_;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_MACHINE_H_
