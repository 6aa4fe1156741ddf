// Copyright (c) Eleos reproduction authors. MIT license.
//
// Virtual cycle clock and simulated CPU (hardware-thread) context.
//
// In-enclave RDTSC is unsupported on SGX1 (the paper resorts to an external
// measurement thread); the simulator instead gives every simulated hardware
// thread a virtual cycle counter that components charge as they execute.
// All reproduced figures are computed from these counters.

#ifndef ELEOS_SRC_SIM_VCLOCK_H_
#define ELEOS_SRC_SIM_VCLOCK_H_

#include <cstdint>

#include "src/sim/cache_model.h"
#include "src/sim/tlb_model.h"

namespace eleos::telemetry {
class SpanTracer;
}  // namespace eleos::telemetry

namespace eleos::sim {

class Machine;
class Enclave;

class VClock {
 public:
  void Advance(uint64_t cycles) { cycles_ += cycles; }
  uint64_t now() const { return cycles_; }
  void Reset() { cycles_ = 0; }

 private:
  uint64_t cycles_ = 0;
};

// One simulated hardware thread: its clock, private TLB, and CAT class of
// service. A real OS thread drives at most one CpuContext at a time (bound
// via BindCpu below).
struct CpuContext {
  CpuContext(Machine* m, int cpu_id) : machine(m), id(cpu_id) {}

  Machine* machine;
  int id;
  VClock clock;
  TlbModel tlb;
  int cos = kCosShared;
  // Non-null while logically inside an enclave: the driver's ETRACK round
  // sends a shootdown IPI to every CPU inside the evicted page's enclave.
  Enclave* enclave = nullptr;

  void Charge(uint64_t cycles) { clock.Advance(cycles); }
};

// Thread-local binding so deep code (spointer dereference operators, the C
// API) can charge the current simulated CPU without threading a context
// parameter through every call. A null binding disables accounting: the code
// stays fully functional, it just costs zero virtual cycles (used by unit
// tests that only check behaviour).
CpuContext* CurrentCpu();
void BindCpu(CpuContext* cpu);

// RAII span bound to a CpuContext: opens a child span of the calling
// thread's innermost open span, timestamped from the CPU's virtual clock and
// placed on that CPU's track. No-op (id() == 0) when the tracer is null or
// disabled, or when there is no CPU to read a clock from — span sites can be
// unconditional. `name` must be a string literal.
class SpanScope {
 public:
  SpanScope(telemetry::SpanTracer* spans, CpuContext* cpu, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return id_; }

 private:
  telemetry::SpanTracer* spans_;
  CpuContext* cpu_;
  uint64_t id_ = 0;
};

// RAII binder.
class ScopedCpu {
 public:
  explicit ScopedCpu(CpuContext* cpu) : prev_(CurrentCpu()) { BindCpu(cpu); }
  ~ScopedCpu() { BindCpu(prev_); }
  ScopedCpu(const ScopedCpu&) = delete;
  ScopedCpu& operator=(const ScopedCpu&) = delete;

 private:
  CpuContext* prev_;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_VCLOCK_H_
