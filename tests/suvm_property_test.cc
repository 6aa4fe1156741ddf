// Copyright (c) Eleos reproduction authors. MIT license.
//
// Property-based testing of SUVM: a random mix of operations is mirrored
// against a plain byte-array reference model; contents must agree at every
// step, across a parameter sweep of page-cache sizes, sub-page modes, and
// access paths.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/suvm/suvm.h"
#include "tests/test_status.h"

namespace eleos::suvm {
namespace {

struct FuzzParams {
  size_t epc_pp_pages;
  bool direct_mode;
  bool clean_skip;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<FuzzParams>& info) {
  const FuzzParams& p = info.param;
  std::string name = "pp" + std::to_string(p.epc_pp_pages);
  name += p.direct_mode ? "_direct" : "_paged";
  name += p.clean_skip ? "_skip" : "_noskip";
  name += "_s" + std::to_string(p.seed);
  return name;
}

class SuvmFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(SuvmFuzz, MatchesReferenceModel) {
  const FuzzParams param = GetParam();
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig cfg;
  cfg.epc_pp_pages = param.epc_pp_pages;
  cfg.backing_bytes = 8 << 20;
  cfg.direct_mode = param.direct_mode;
  cfg.clean_page_skip = param.clean_skip;
  cfg.swapper_low_watermark = 2;
  Suvm suvm(enclave, cfg);

  const size_t kRegion = 48 * sim::kPageSize;  // 24x a tiny cache
  const uint64_t base = ValueOrThrow(suvm.Malloc(kRegion));
  std::vector<uint8_t> reference(kRegion, 0);

  Xoshiro256 rng(param.seed);
  std::vector<uint8_t> buf(3000);
  for (int step = 0; step < 1500; ++step) {
    const uint64_t op = rng.NextBelow(100);
    const size_t off = rng.NextBelow(kRegion - 1);
    const size_t len = 1 + rng.NextBelow(std::min(buf.size(), kRegion - off) - 0);

    if (op < 35) {  // write
      rng.FillBytes(buf.data(), len);
      ASSERT_OK(suvm.Write(nullptr, base + off, buf.data(), len));
      std::memcpy(reference.data() + off, buf.data(), len);
    } else if (op < 70) {  // read + compare
      ASSERT_OK(suvm.Read(nullptr, base + off, buf.data(), len));
      ASSERT_EQ(0, std::memcmp(buf.data(), reference.data() + off, len))
          << "step " << step << " off " << off << " len " << len;
    } else if (op < 80) {  // memset
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      ASSERT_OK(suvm.Memset(nullptr, base + off, v, len));
      std::memset(reference.data() + off, v, len);
    } else if (op < 90 && param.direct_mode) {  // direct read
      ASSERT_OK(suvm.ReadDirect(nullptr, base + off, buf.data(), len));
      ASSERT_EQ(0, std::memcmp(buf.data(), reference.data() + off, len))
          << "direct read, step " << step;
    } else if (op < 95 && param.direct_mode) {  // direct write
      rng.FillBytes(buf.data(), len);
      ASSERT_OK(suvm.WriteDirect(nullptr, base + off, buf.data(), len));
      std::memcpy(reference.data() + off, buf.data(), len);
    } else if (op < 97) {  // swapper pass
      suvm.SwapperPass(nullptr);
    } else {  // balloon squeeze and restore
      suvm.ResizeEpcPp(nullptr, 2);
      suvm.ResizeEpcPp(nullptr, param.epc_pp_pages);
    }
  }

  // Final full sweep.
  std::vector<uint8_t> all(kRegion);
  ASSERT_OK(suvm.Read(nullptr, base, all.data(), kRegion));
  EXPECT_EQ(0, std::memcmp(all.data(), reference.data(), kRegion));
  EXPECT_GT(suvm.stats().major_faults.load(), 0u);
  EXPECT_GT(suvm.stats().evictions.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuvmFuzz,
    ::testing::Values(
        FuzzParams{4, false, true, 1},
        FuzzParams{4, false, false, 2},
        FuzzParams{4, false, true, 3},
        FuzzParams{4, false, true, 4},
        FuzzParams{4, true, true, 5},
        FuzzParams{4, true, false, 6},
        FuzzParams{16, false, true, 7},
        FuzzParams{16, true, true, 8},
        FuzzParams{3, false, true, 9},
        FuzzParams{3, true, true, 10}),
    ParamName);

// Clock (second-chance) eviction keeps a hot set resident under a cold scan.
// Through an 8-page EPC++, each round reads random pages of the hot set 0-3
// six times and one random page of 4-15 once. A hot page is evicted only when
// the clock hand finds its reference bit clear, i.e. when it went unread
// since the hand last passed it. After a first sweep has paged the hot set
// in, the test counts page-ins per page from the kSuvmMajorFault trace
// events.
TEST(ClockEviction, ProtectsReReferencedPages) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig cfg;
  cfg.epc_pp_pages = 8;
  cfg.backing_bytes = 4 << 20;
  cfg.swapper_low_watermark = 0;
  Suvm suvm(enclave, cfg);
  const uint64_t a = ValueOrThrow(suvm.Malloc(16 * sim::kPageSize));
  uint8_t b = 0;
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_OK(suvm.Write(nullptr, a + p * sim::kPageSize, &b, 1));
  }
  for (uint64_t p = 0; p < 4; ++p) {  // the first sweep over the hot set
    ASSERT_OK(suvm.Read(nullptr, a + p * sim::kPageSize, &b, 1));
  }
  telemetry::TraceRing& trace = machine.metrics().trace();
  trace.Reset();
  Xoshiro256 rng(9);
  for (int round = 0; round < 60; ++round) {
    for (int hot = 0; hot < 6; ++hot) {
      ASSERT_OK(suvm.Read(nullptr, a + rng.NextBelow(4) * sim::kPageSize, &b,
                          1));
    }
    ASSERT_OK(suvm.Read(nullptr, a + (4 + rng.NextBelow(12)) * sim::kPageSize,
                        &b, 1));
  }
  ASSERT_EQ(trace.dropped(), 0u);
  const uint64_t first_page = a / sim::kPageSize;
  size_t hot_page_ins = 0;
  size_t cold_page_ins = 0;
  for (const telemetry::TraceEvent& e : trace.Snapshot()) {
    if (e.kind == telemetry::TraceKind::kSuvmMajorFault) {
      ++(e.arg0 < first_page + 4 ? hot_page_ins : cold_page_ins);
    }
  }
  // The cold scan keeps evicting (38 page-ins). Clock pages the hot set back
  // in twice; a hand that ignores the reference bit, 28 times.
  EXPECT_GT(cold_page_ins, 30u) << "the cold scan stopped evicting";
  EXPECT_LE(hot_page_ins, 4u)
      << hot_page_ins << " hot page-ins (at most one per hot page) against "
      << cold_page_ins
      << " cold: second chance failed to protect the re-referenced hot set";
}

TEST(ClockEviction, PreservesData) {
  sim::Machine machine;
  sim::Enclave enclave(machine);
  SuvmConfig cfg;
  cfg.epc_pp_pages = 4;
  cfg.backing_bytes = 4 << 20;
  cfg.swapper_low_watermark = 0;
  Suvm suvm(enclave, cfg);
  const uint64_t a = ValueOrThrow(suvm.Malloc(32 * sim::kPageSize));
  for (uint64_t p = 0; p < 32; ++p) {
    const uint64_t v = p * 31 + 7;
    ASSERT_OK(suvm.Write(nullptr, a + p * sim::kPageSize, &v, sizeof(v)));
  }
  for (uint64_t p = 0; p < 32; ++p) {
    uint64_t got = 0;
    ASSERT_OK(suvm.Read(nullptr, a + p * sim::kPageSize, &got, sizeof(got)));
    ASSERT_EQ(got, p * 31 + 7) << "page " << p;
  }
}

}  // namespace
}  // namespace eleos::suvm
