// Copyright (c) Eleos reproduction authors. MIT license.
//
// VirtualGate: the causal paging gate (DESIGN.md §14). An entrant at virtual
// time `now` is charged only up to the first gap at or after `now` that fits
// its own section, so a section recorded in the entrant's virtual future
// never delays it when the entrant's section fits before it. Checked here:
// single-clock byte-identity (never a wait), out-of-order entrants, exact
// waits to a section's end, gaps too short for the hold, the documented
// retention limit, null-CPU callers, and a seeded multi-clock schedule whose
// gated sections never overlap and whose total wait never exceeds the
// single-horizon gate's on the same schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/spinlock.h"
#include "src/suvm/suvm.h"

namespace eleos {
namespace {

// Records [now + wait, now + wait + hold) the way a gated caller does: pay the
// wait, charge the hold inside, release. Returns the wait.
uint64_t Section(VirtualGate& gate, uint64_t now, uint64_t hold) {
  const uint64_t wait = gate.Acquire(now, hold);
  gate.Release(now + wait + hold);
  return wait;
}

// Probes the wait for a `hold`-cycle section at `now` without recording one.
uint64_t Probe(VirtualGate& gate, uint64_t now, uint64_t hold) {
  const uint64_t wait = gate.Acquire(now, hold);
  gate.Release(now + wait);  // zero-length: records nothing
  return wait;
}

// The single-horizon gate this design replaced: any entrant behind the
// latest release pays the whole gap.
struct HorizonGate {
  uint64_t busy_until = 0;
  uint64_t Section(uint64_t now, uint64_t hold) {
    const uint64_t wait = busy_until > now ? busy_until - now : 0;
    busy_until = std::max(busy_until, now + wait + hold);
    return wait;
  }
};

TEST(VirtualGate, SingleClockNeverWaits) {
  VirtualGate gate;
  Xoshiro256 rng(1);
  uint64_t clock = 0;
  for (int i = 0; i < 10000; ++i) {
    clock += rng.NextBelow(1000);  // non-gated work between sections
    const uint64_t hold = rng.NextBelow(400);
    ASSERT_EQ(Section(gate, clock, hold), 0u) << "step " << i;
    clock += hold;
  }
}

TEST(VirtualGate, OutOfOrderEntrantThatFitsBeforeASectionWaitsZero) {
  VirtualGate gate;
  ASSERT_EQ(Section(gate, 1000, 300), 0u);  // [1000, 1300) in the future
  EXPECT_EQ(Probe(gate, 0, 300), 0u);
  EXPECT_EQ(Probe(gate, 700, 300), 0u);  // [700, 1000) ends where it starts
  EXPECT_EQ(Section(gate, 500, 300), 0u);  // records [500, 800)
  EXPECT_EQ(Probe(gate, 0, 300), 0u);
  EXPECT_EQ(Probe(gate, 800, 200), 0u);  // [800, 1000) fits between them
}

TEST(VirtualGate, EntrantInsideASectionWaitsExactlyToItsEnd) {
  VirtualGate gate;
  ASSERT_EQ(Section(gate, 1000, 300), 0u);  // [1000, 1300)
  EXPECT_EQ(Probe(gate, 1000, 300), 300u);
  EXPECT_EQ(Probe(gate, 1100, 300), 200u);
  EXPECT_EQ(Probe(gate, 1299, 1), 1u);
  EXPECT_EQ(Probe(gate, 1300, 300), 0u);
  // Overlapping the start from before also queues behind the whole section.
  EXPECT_EQ(Probe(gate, 800, 300), 500u);
  // A zero-cycle hold still needs one free cycle: inside a section it waits.
  EXPECT_EQ(Probe(gate, 1200, 0), 100u);
  EXPECT_EQ(Probe(gate, 999, 0), 0u);
}

TEST(VirtualGate, GapShorterThanHoldIsSkipped) {
  VirtualGate gate;
  ASSERT_EQ(Section(gate, 0, 300), 0u);    // [0, 300)
  ASSERT_EQ(Section(gate, 400, 300), 0u);  // [400, 700)
  ASSERT_EQ(Section(gate, 800, 300), 0u);  // [800, 1100)
  EXPECT_EQ(Probe(gate, 300, 100), 0u);    // the 100-cycle gap fits 100
  EXPECT_EQ(Probe(gate, 300, 101), 800u);  // ... not 101: both gaps skipped
  EXPECT_EQ(Probe(gate, 250, 300), 850u);  // ends at 300, skips 300..400 too
  // A section recorded into a gap merges with the neighbours it touches.
  ASSERT_EQ(Section(gate, 300, 100), 0u);  // [0, 700) now one section
  EXPECT_EQ(Probe(gate, 0, 1), 700u);
  EXPECT_EQ(Probe(gate, 700, 100), 0u);
}

TEST(VirtualGate, RetentionKeepsTheLatestSections) {
  VirtualGate gate;
  const uint64_t n = VirtualGate::kMaxSections + 1;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(Section(gate, 1000 * i, 10), 0u);  // [1000i, 1000i + 10)
  }
  // The oldest section was dropped: an entrant landing on it is charged no
  // wait (the documented limit) ...
  EXPECT_EQ(Probe(gate, 0, 10), 0u);
  // ... while every retained section still queues an entrant that hits it.
  for (uint64_t i = 1; i < n; ++i) {
    EXPECT_EQ(Probe(gate, 1000 * i, 10), 10u) << "section " << i;
  }
  // Recording an even older section than the oldest retained one keeps it
  // at most briefly: it is the first to go.
  ASSERT_EQ(Section(gate, 500, 10), 0u);
  EXPECT_EQ(Probe(gate, 500, 10), 0u);
  EXPECT_EQ(Probe(gate, 1000, 10), 10u);
}

TEST(VirtualGate, NullCpuCallersWaitForNothingAndRecordNothing) {
  VirtualGate gate;
  ASSERT_EQ(Section(gate, 0, 300), 0u);  // [0, 300)
  // A null-CPU caller passes now=0 to both calls and ignores the wait;
  // Release(0) must leave no trace.
  gate.Acquire(0, 300);
  gate.Release(0);
  EXPECT_EQ(Probe(gate, 300, 300), 0u);
  EXPECT_EQ(Probe(gate, 0, 1), 300u);
}

// Four clocks round-robined lowest-first (as the benches schedule CPUs):
// the sections the holders really occupied never overlap, yet clocks that
// trail another CPU's future section still run out of order.
TEST(VirtualGate, SeededScheduleNeverOverlapsSections) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    VirtualGate gate;
    Xoshiro256 rng(seed);
    std::array<uint64_t, 4> clock{};
    std::vector<std::pair<uint64_t, uint64_t>> held;
    uint64_t out_of_order = 0;
    for (int i = 0; i < 20000; ++i) {
      const size_t cpu = static_cast<size_t>(
          std::min_element(clock.begin(), clock.end()) - clock.begin());
      clock[cpu] += rng.NextBelow(3000);  // work before the fault
      const uint64_t hold = rng.NextBelow(8) == 0 ? 0 : 1 + rng.NextBelow(400);
      const uint64_t start = clock[cpu] + Section(gate, clock[cpu], hold);
      if (!held.empty() && start < held.back().first) {
        ++out_of_order;
      }
      if (hold > 0) {
        held.emplace_back(start, start + hold);
      }
      clock[cpu] = start + hold + rng.NextBelow(3000);
    }
    EXPECT_GT(out_of_order, 0u) << "seed " << seed << ": schedule never "
                                << "exercised an out-of-order entrant";
    std::sort(held.begin(), held.end());
    for (size_t k = 1; k < held.size(); ++k) {
      ASSERT_LE(held[k - 1].second, held[k].first)
          << "seed " << seed << ": sections overlap";
    }
  }
}

// The same seeded schedule (which clock enters next, its work and hold) run
// against both gates: the causal gate's total wait never exceeds the
// horizon gate's, and on this contended schedule it is strictly lower.
TEST(VirtualGate, NeverChargesMoreThanTheHorizonGate) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    VirtualGate gate;
    HorizonGate horizon;
    std::array<uint64_t, 4> clock{}, horizon_clock{};
    uint64_t wait = 0, horizon_wait = 0;
    Xoshiro256 rng(seed);
    for (int i = 0; i < 20000; ++i) {
      const size_t cpu = static_cast<size_t>(rng.NextBelow(clock.size()));
      const uint64_t before = rng.NextBelow(3000);
      const uint64_t hold = rng.NextBelow(400);
      const uint64_t after = rng.NextBelow(3000);
      clock[cpu] += before;
      const uint64_t w = Section(gate, clock[cpu], hold);
      clock[cpu] += w + hold + after;
      wait += w;
      horizon_clock[cpu] += before;
      const uint64_t hw = horizon.Section(horizon_clock[cpu], hold);
      horizon_clock[cpu] += hw + hold + after;
      horizon_wait += hw;
      ASSERT_LE(clock[cpu], horizon_clock[cpu]) << "seed " << seed;
    }
    EXPECT_LE(wait, horizon_wait) << "seed " << seed;
    EXPECT_LT(wait, horizon_wait) << "seed " << seed;
  }
}

// Through Suvm: a fault by a CPU far ahead in virtual time, and null-CPU
// faults, cost a CPU that is behind nothing; the paging-gate wait stays 0.
TEST(VirtualGate, SuvmFaultBehindAFutureFaultDoesNotQueue) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  suvm::SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 4ull << 20;
  cfg.swapper_low_watermark = 0;
  suvm::Suvm suvm(enclave, cfg);
  constexpr size_t kPages = 32;
  const uint64_t base = suvm.Malloc(kPages * sim::kPageSize);
  std::vector<uint8_t> buf(64, 0x5a);
  for (size_t p = 0; p < kPages; ++p) {  // seal everything out via null CPU
    suvm.Write(nullptr, base + p * sim::kPageSize, buf.data(), buf.size());
  }
  sim::CpuContext& ahead = machine.cpu(1);
  sim::CpuContext& behind = machine.cpu(0);
  enclave.Enter(ahead);
  enclave.Enter(behind);
  ahead.clock.Advance(100000000);
  for (size_t p = 0; p < kPages; ++p) {
    suvm.Read(&ahead, base + p * sim::kPageSize, buf.data(), buf.size());
    suvm.Read(nullptr, base + ((p + 7) % kPages) * sim::kPageSize, buf.data(),
              buf.size());
    suvm.Read(&behind, base + ((p + 16) % kPages) * sim::kPageSize, buf.data(),
              buf.size());
  }
  EXPECT_GT(suvm.stats().major_faults.load(), 2 * kPages);
  EXPECT_LT(behind.clock.now(), 100000000u);
  EXPECT_EQ(suvm.stats().gate_wait_cycles.load(), 0u);
  enclave.Exit(behind);
  enclave.Exit(ahead);
}

}  // namespace
}  // namespace eleos
